package pdns

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzTSVReader checks that arbitrary input never panics the reference TSV
// decoder and that every line it accepts re-encodes through the Writer to
// bytes that decode back to the same record and re-encode to themselves.
func FuzzTSVReader(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("bad line\n")
	f.Add("\t\t\t\t\t\t\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	// Torn-input seeds: a line the writer died on mid-record, and a
	// torn-gzip garbage prefix glued to a healthy line.
	f.Add("f.on.aws\t1\t1.2.")
	f.Add("\x1f\x8b\x00\xfff.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, line := range strings.Split(input, "\n") {
			var rec Record
			if parseTSV(line, &rec) != nil {
				continue // malformed input is rejected, never panics
			}
			first := encodeTSV(t, []Record{rec})
			back, err := decodeAll(first, TSV)
			if err != nil || len(back) != 1 {
				t.Fatalf("re-parse of %q failed: %v", first, err)
			}
			if !sameRecord(back[0], rec) {
				t.Fatalf("round trip changed record: %+v vs %+v", rec, back[0])
			}
			if second := encodeTSV(t, back); !bytes.Equal(first, second) {
				t.Fatalf("re-encode is not a fixpoint: %q vs %q", first, second)
			}
		}
	})
}

// FuzzBatchTSVRoundTrip checks that a record keeps its Writer bytes through
// the columnar batch: every line the reference decoder accepts is written
// once directly and once after AppendRecord → At, and the two TSV encodings
// must be identical.
func FuzzBatchTSVRoundTrip(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\njunk\nf.on.aws\t5\tx\t0\t0\t0\t0\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	f.Add("f\t+1\tr\t-5\t-5\t0\t-1\n")
	f.Add("f\t99999999999999999999\tr\t0\t0\t0\t0\n")
	f.Add("f.on.aws\t1\t1.2.")
	f.Fuzz(func(t *testing.T, input string) {
		var recs []Record
		for _, line := range strings.Split(input, "\n") {
			var rec Record
			if parseTSV(line, &rec) == nil {
				recs = append(recs, rec)
			}
		}
		batch := NewRecordBatch(len(recs))
		for i := range recs {
			batch.AppendRecord(&recs[i])
		}
		viaBatch := make([]Record, batch.Len())
		for i := range viaBatch {
			batch.At(i, &viaBatch[i])
		}
		if direct, batched := encodeTSV(t, recs), encodeTSV(t, viaBatch); !bytes.Equal(direct, batched) {
			t.Fatalf("batch round trip changed the bytes:\n%q\nvs\n%q", batched, direct)
		}
	})
}

// encodeTSV writes recs through a TSV Writer and returns the bytes.
func encodeTSV(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, TSV)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRecord compares every field, timestamps by instant.
func sameRecord(a, b Record) bool {
	return a.FQDN == b.FQDN && a.RType == b.RType && a.RData == b.RData &&
		a.RequestCnt == b.RequestCnt && a.PDate == b.PDate &&
		a.FirstSeen.Equal(b.FirstSeen) && a.LastSeen.Equal(b.LastSeen)
}

// FuzzAddBatchMatchesAdd drives the columnar aggregator against the scalar
// reference on arbitrary row streams. Each input byte picks a row from a
// small pool of function and non-function FQDNs, days (some outside the
// window), rtypes and rdata, and may mangle it the three ways a corrupting
// feed hook does (empty FQDN, negative request_cnt, last_seen before
// first_seen). Mangles go through At → mutate → Set exactly as the
// pipeline's hooks do, so the empty FQDN gets interned mid-stream into a
// table that already issued other symbols. The batch side flushes every few
// rows through one reused batch, like a streaming shard. Each side counts
// into its own registry, and the two must agree on every record and ingest
// counter as well as on the aggregate: AddBatch counts per batch what Add
// counts per record.
func FuzzAddBatchMatchesAdd(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x40, 0x81, 0xc2, 0x03, 0x44})
	f.Add([]byte{0xff, 0x00, 0xff, 0x13, 0x37})
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f})
	start, end := testWindow()
	fqdns := []string{
		"1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com",
		"x.lambda-url.us-east-1.on.aws",
		"Y.LAMBDA-URL.us-east-1.on.aws",
		"not-a-function.example.com",
	}
	days := []Date{start, start.AddDays(1), start.AddDays(400), end, end.AddDays(1), start.AddDays(-3)}
	rtypes := []RType{TypeA, TypeAAAA, TypeCNAME, RType(16)}
	rdatas := []string{"1.2.3.4", "2600::1", "gz.scf.tencentcs.com", ""}
	f.Fuzz(func(t *testing.T, in []byte) {
		want := NewAggregator(nil, start, end)
		got := NewAggregator(nil, start, end)
		wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
		want.InstrumentShard(wantReg, "0")
		got.InstrumentShard(gotReg, "0")
		batch := NewRecordBatch(4)
		flush := func() {
			got.AddBatch(batch)
			batch.Reset()
		}
		var rec Record
		for i, c := range in {
			r := mkRecord(fqdns[int(c)%len(fqdns)], days[int(c>>2)%len(days)],
				rtypes[int(c>>4)%len(rtypes)], rdatas[(int(c)+i)%len(rdatas)], int64(c)*int64(i+1))
			batch.AppendRecord(&r)
			row := batch.Len() - 1
			batch.At(row, &rec)
			switch c >> 6 {
			case 1:
				rec.FQDN = ""
			case 2:
				rec.RequestCnt = -rec.RequestCnt - 1
			case 3:
				rec.LastSeen = rec.FirstSeen.Add(-time.Hour)
			}
			batch.Set(row, &rec)
			want.Add(&rec)
			if batch.Len() == 3 {
				flush()
			}
		}
		flush()
		if !reflect.DeepEqual(want.Finish(), got.Finish()) {
			t.Fatalf("AddBatch aggregate diverged from Add on input %x", in)
		}
		ws, gs := wantReg.Snapshot(), gotReg.Snapshot()
		for _, name := range []string{"pdns_records_scanned_total", "pdns_records_matched_total", "pdns_records_dropped_total"} {
			if w, g := ws.Counters[name], gs.Counters[name]; w != g {
				t.Fatalf("%s: AddBatch counted %d, Add %d on input %x", name, g, w, in)
			}
		}
		if w, g := ws.CounterVecs["pdns_ingest_total"], gs.CounterVecs["pdns_ingest_total"]; !reflect.DeepEqual(w, g) {
			t.Fatalf("pdns_ingest_total: AddBatch counted %v, Add %v on input %x", g.Series, w.Series, in)
		}
	})
}
