package pdns

import (
	"bytes"
	"io"
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
	for i, w := range words {
		if got := s.InternBytes([]byte(w)); got != want[i] {
			t.Fatalf("InternBytes(%q) = %d, want %d", w, got, want[i])
		}
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
// the same rows exercise codec and aggregation paths.
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

// TestWriteBatchBytesIdentical pins the core codec contract: a batch write
// produces exactly the bytes of the equivalent per-record writes, in both
// formats.
func TestWriteBatchBytesIdentical(t *testing.T) {
	recs := batchRecords()
	for _, format := range []Format{TSV, JSONL} {
		var scalar bytes.Buffer
		w := NewWriter(&scalar, format)
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()

		var batched bytes.Buffer
		bw := NewWriter(&batched, format)
		if err := bw.WriteBatch(batchOf(recs)); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if bw.Count() != int64(len(recs)) {
			t.Errorf("format %d: Count = %d, want %d", format, bw.Count(), len(recs))
		}
		if !bytes.Equal(scalar.Bytes(), batched.Bytes()) {
			t.Errorf("format %d: batch bytes differ from scalar bytes:\n%q\nvs\n%q",
				format, batched.String(), scalar.String())
		}
	}
}

func TestReadBatchMatchesRead(t *testing.T) {
	recs := batchRecords()
	for _, format := range []Format{TSV, JSONL} {
		var buf bytes.Buffer
		w := NewWriter(&buf, format)
		if err := w.WriteBatch(batchOf(recs)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		encoded := buf.Bytes()

		var scalar []Record
		r := NewReader(bytes.NewReader(encoded), format)
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			scalar = append(scalar, rec)
		}

		var batched []Record
		br := NewReader(bytes.NewReader(encoded), format)
		b := NewRecordBatch(2) // tiny batch forces several ReadBatch rounds
		for {
			b.Reset()
			n, err := br.ReadBatch(b, 2)
			for i := 0; i < n; i++ {
				var out Record
				b.At(i, &out)
				batched = append(batched, out)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(scalar, batched) {
			t.Errorf("format %d: batch read diverged:\n%+v\nvs\n%+v", format, batched, scalar)
		}
	}
}

// TestReadBatchQuarantine feeds the same dirty stream to the scalar and the
// batch reader and requires identical delivered records and skip counts.
func TestReadBatchQuarantine(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, TSV)
	recs := batchRecords()
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("garbage line without tabs\n")
		buf.WriteString("f\tnotanint\trdata\t0\t0\t1\t100\n")
	}
	w.Flush()
	dirty := buf.Bytes()

	sr := NewReader(bytes.NewReader(dirty), TSV).Quarantine(0.9)
	var scalar []Record
	var rec Record
	for {
		err := sr.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scalar = append(scalar, rec)
	}

	br := NewReader(bytes.NewReader(dirty), TSV).Quarantine(0.9)
	b := NewRecordBatch(DefaultBatchRows)
	var batched []Record
	for {
		b.Reset()
		n, err := br.ReadBatch(b, 3)
		for i := 0; i < n; i++ {
			var out Record
			b.At(i, &out)
			batched = append(batched, out)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(scalar, batched) {
		t.Errorf("quarantined batch read diverged:\n%+v\nvs\n%+v", batched, scalar)
	}
	if sr.Skipped() != br.Skipped() {
		t.Errorf("Skipped: scalar %d, batch %d", sr.Skipped(), br.Skipped())
	}
	if sr.Skipped() != int64(2*len(recs)) {
		t.Errorf("Skipped = %d, want %d", sr.Skipped(), 2*len(recs))
	}
	// Malformed lines must not leak strings into the intern table: only the
	// delivered rows' fqdn/rdata values may be present.
	distinct := map[string]struct{}{}
	for _, r := range scalar {
		distinct[r.FQDN] = struct{}{}
		distinct[r.RData] = struct{}{}
	}
	if b.Syms.Len() != len(distinct) {
		t.Errorf("symtab has %d entries, want %d (quarantined lines polluted it)",
			b.Syms.Len(), len(distinct))
	}
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
