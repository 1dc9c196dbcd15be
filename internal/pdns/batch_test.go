package pdns

import (
	"reflect"
	"testing"
	"time"
)

func TestInternInsertionOrder(t *testing.T) {
	s := NewSymtab()
	words := []string{"alpha", "beta", "gamma", "alpha", "beta", "delta"}
	want := []Sym{0, 1, 2, 0, 1, 3}
	for i, w := range words {
		if got := s.Intern(w); got != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", w, got, want[i])
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.Lookup(2); got != "gamma" {
		t.Fatalf("Lookup(2) = %q", got)
	}
	// Unknown symbols degrade to "" instead of panicking.
	if got := s.Lookup(99); got != "" {
		t.Fatalf("out-of-range Lookup = %q, want empty", got)
	}
}

// batchRecords is a small corpus whose FQDNs match real provider formats, so
// the rows exercise the aggregation paths.
func batchRecords() []Record {
	d := date(2022, time.June, 10)
	return []Record{
		mkRecord("1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com", d, TypeCNAME, "gz.scf.tencentcs.com", 12),
		mkRecord("x.lambda-url.us-east-1.on.aws", d.AddDays(1), TypeA, "3.4.5.6", 1),
		mkRecord("x.lambda-url.us-east-1.on.aws", d.AddDays(1), TypeAAAA, "2600::1", 99),
		mkRecord("y.lambda-url.us-east-1.on.aws", d.AddDays(40), TypeA, "3.4.5.6", 7),
		mkRecord("not-a-function.example.com", d, TypeA, "9.9.9.9", 3),
	}
}

func batchOf(recs []Record) *RecordBatch {
	b := NewRecordBatch(len(recs))
	for i := range recs {
		b.AppendRecord(&recs[i])
	}
	return b
}

// TestAddBatchMatchesAdd is the core equivalence claim of the columnar path:
// folding a batch must produce exactly the aggregate of scalar Adds.
func TestAddBatchMatchesAdd(t *testing.T) {
	start, end := testWindow()
	recs := batchRecords()
	// Edge rows: invalid (negative count) and out-of-window.
	bad := mkRecord("z.lambda-url.us-east-1.on.aws", start.AddDays(3), TypeA, "1.1.1.1", 5)
	bad.RequestCnt = -4
	recs = append(recs, bad)
	recs = append(recs, mkRecord("w.lambda-url.us-east-1.on.aws", end.AddDays(10), TypeA, "1.1.1.1", 5))

	want := NewAggregator(nil, start, end)
	for i := range recs {
		want.Add(&recs[i])
	}

	got := NewAggregator(nil, start, end)
	// Split across two batches sharing one Symtab, like a streaming producer.
	b1 := batchOf(recs[:3])
	got.AddBatch(b1)
	b2 := &RecordBatch{Syms: b1.Syms}
	for i := 3; i < len(recs); i++ {
		b2.AppendRecord(&recs[i])
	}
	got.AddBatch(b2)

	if !reflect.DeepEqual(want.Finish(), got.Finish()) {
		t.Fatal("AddBatch aggregate differs from scalar Add aggregate")
	}
}

// TestAddBatchForeignSymtab: a batch whose Symtab is not the adopted one must
// still aggregate correctly (the per-symbol caches are rebuilt for it).
func TestAddBatchForeignSymtab(t *testing.T) {
	start, end := testWindow()
	recs := batchRecords()

	want := NewAggregator(nil, start, end)
	for i := range recs {
		want.Add(&recs[i])
	}

	got := NewAggregator(nil, start, end)
	got.AddBatch(batchOf(recs[:2])) // adopted table
	got.AddBatch(batchOf(recs[2:])) // foreign table → fallback

	if !reflect.DeepEqual(want.Finish(), got.Finish()) {
		t.Fatal("foreign-symtab AddBatch diverged from scalar aggregate")
	}
}

// TestAddBatchMixedWithAdd interleaves scalar Add calls with batches: the
// two entry points share one aggregator state, so an edge consumer may mix
// them freely.
func TestAddBatchMixedWithAdd(t *testing.T) {
	start, end := testWindow()
	recs := batchRecords()

	want := NewAggregator(nil, start, end)
	for i := range recs {
		want.Add(&recs[i])
	}

	got := NewAggregator(nil, start, end)
	got.AddBatch(batchOf(recs[:2]))
	got.Add(&recs[2])
	b := batchOf(recs[3:])
	got.AddBatch(b) // foreign table again — caches rebuilt
	if !reflect.DeepEqual(want.Finish(), got.Finish()) {
		t.Fatal("mixed Add/AddBatch diverged from scalar aggregate")
	}
}

// TestRowValidMatchesValidate checks the integer-only row validation agrees
// with Record.Validate for every rejection class.
func TestRowValidMatchesValidate(t *testing.T) {
	d := date(2023, time.January, 5)
	good := mkRecord("a.lambda-url.us-east-1.on.aws", d, TypeA, "1.2.3.4", 7)
	cases := []func(*Record){
		func(r *Record) {},
		func(r *Record) { r.FQDN = "" },
		func(r *Record) { r.RequestCnt = -1 },
		func(r *Record) { r.LastSeen = r.FirstSeen.Add(-time.Hour) },
		func(r *Record) { r.PDate = d.AddDays(1) },
	}
	for i, mutate := range cases {
		rec := good
		mutate(&rec)
		b := NewRecordBatch(1)
		b.AppendRecord(&rec)
		if got, want := b.rowValid(0), rec.Validate() == nil; got != want {
			t.Errorf("case %d: rowValid = %v, Validate nil = %v", i, got, want)
		}
	}
}
