package pdns

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

// FuzzTSVReader checks that arbitrary input never panics the TSV parser and
// that every successfully parsed record re-encodes and re-parses to itself.
func FuzzTSVReader(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("bad line\n")
	f.Add("\t\t\t\t\t\t\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	// Quarantine-path seeds: a line the writer died on mid-record, and a
	// torn-gzip garbage prefix glued to a healthy line.
	f.Add("f.on.aws\t1\t1.2.")
	f.Add("\x1f\x8b\x00\xfff.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Fuzz(func(t *testing.T, line string) {
		r := NewReader(bytes.NewBufferString(line), TSV)
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed input is rejected, never panics
			}
			var buf bytes.Buffer
			w := NewWriter(&buf, TSV)
			if err := w.Write(&rec); err != nil {
				t.Fatalf("re-encode of parsed record failed: %v", err)
			}
			w.Flush()
			var rec2 Record
			if err := NewReader(&buf, TSV).Read(&rec2); err != nil {
				t.Fatalf("re-parse failed: %v (line %q)", err, buf.String())
			}
			if rec2.FQDN != rec.FQDN || rec2.RequestCnt != rec.RequestCnt || rec2.PDate != rec.PDate {
				t.Fatalf("round trip changed record: %+v vs %+v", rec, rec2)
			}
		}
	})
}

// FuzzBatchTSVRoundTrip runs the scalar and the batch TSV readers over the
// same arbitrary bytes in quarantine mode and requires them to agree on
// every observable: the records delivered, the skip count, and — for the
// delivered rows — the re-encoded bytes of batch and scalar writers.
func FuzzBatchTSVRoundTrip(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\njunk\nf.on.aws\t5\tx\t0\t0\t0\t0\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	f.Add("f\t+1\tr\t-5\t-5\t0\t-1\n")
	f.Add("f\t99999999999999999999\tr\t0\t0\t0\t0\n") // overflow hits the slow path
	f.Add("f.on.aws\t1\t1.2.")
	f.Fuzz(func(t *testing.T, input string) {
		sr := NewReader(bytes.NewBufferString(input), TSV).Quarantine(0.99)
		var scalar []Record
		var rec Record
		var scalarErr error
		for {
			err := sr.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				scalarErr = err
				break
			}
			scalar = append(scalar, rec)
		}

		br := NewReader(bytes.NewBufferString(input), TSV).Quarantine(0.99)
		batch := NewRecordBatch(4)
		var batched []Record
		var batchErr error
		for {
			batch.Reset()
			n, err := br.ReadBatch(batch, 4)
			for i := 0; i < n; i++ {
				var out Record
				batch.At(i, &out)
				batched = append(batched, out)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				batchErr = err
				break
			}
		}

		if (scalarErr == nil) != (batchErr == nil) {
			t.Fatalf("error divergence: scalar %v, batch %v", scalarErr, batchErr)
		}
		if scalarErr != nil {
			if !errors.Is(scalarErr, ErrErrorBudget) || !errors.Is(batchErr, ErrErrorBudget) {
				t.Fatalf("hard failure in quarantine mode: scalar %v, batch %v", scalarErr, batchErr)
			}
			return // blown budgets abort mid-stream; delivered prefixes may differ
		}
		if len(scalar) != len(batched) {
			t.Fatalf("delivered %d batch records, scalar delivered %d", len(batched), len(scalar))
		}
		for i := range scalar {
			a, b := scalar[i], batched[i]
			if a.FQDN != b.FQDN || a.RType != b.RType || a.RData != b.RData ||
				a.RequestCnt != b.RequestCnt || a.PDate != b.PDate ||
				!a.FirstSeen.Equal(b.FirstSeen) || !a.LastSeen.Equal(b.LastSeen) {
				t.Fatalf("record %d diverged: scalar %+v, batch %+v", i, a, b)
			}
		}
		if sr.Skipped() != br.Skipped() {
			t.Fatalf("Skipped: scalar %d, batch %d", sr.Skipped(), br.Skipped())
		}

		// Re-encode both ways; the bytes must match exactly.
		var sbuf, bbuf bytes.Buffer
		sw := NewWriter(&sbuf, TSV)
		for i := range scalar {
			if err := sw.Write(&scalar[i]); err != nil {
				t.Fatal(err)
			}
		}
		sw.Flush()
		reBatch := NewRecordBatch(len(batched))
		for i := range batched {
			reBatch.AppendRecord(&batched[i])
		}
		bw := NewWriter(&bbuf, TSV)
		if err := bw.WriteBatch(reBatch); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if !bytes.Equal(sbuf.Bytes(), bbuf.Bytes()) {
			t.Fatalf("re-encode diverged:\n%q\nvs\n%q", bbuf.String(), sbuf.String())
		}
	})
}

// FuzzQuarantineReader checks that a quarantining reader never panics and
// never hard-fails on arbitrary input: every outcome is a delivered record,
// a quarantined line, or a blown error budget — nothing else.
func FuzzQuarantineReader(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("f.on.aws\t1\t1.2.") // half-written line, writer died mid-record
	f.Add("\x1f\x8b\x00\xffgarbage\n")
	f.Add("junk\njunk\njunk\n")
	f.Fuzz(func(t *testing.T, input string) {
		r := NewReader(bytes.NewBufferString(input), TSV).Quarantine(0.5)
		var rec Record
		var delivered int64
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrErrorBudget) {
					t.Fatalf("quarantining reader hard-failed: %v", err)
				}
				return
			}
			delivered++
		}
		if r.StreamErr() != nil {
			t.Fatalf("in-memory stream reported a stream error: %v", r.StreamErr())
		}
		_ = delivered
	})
}

// FuzzQuarantineTruncatedGzip compresses the input, cuts the stream at an
// arbitrary point, and checks a quarantining reader ends with a clean EOF and
// the truncation surfaced via StreamErr rather than a hard failure.
func FuzzQuarantineTruncatedGzip(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n", 10)
	f.Add("junk\n", 3)
	f.Fuzz(func(t *testing.T, line string, cut int) {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		for i := 0; i < 50; i++ {
			gz.Write([]byte(line))
		}
		gz.Close()
		if cut < 0 {
			cut = -cut
		}
		if n := buf.Len(); n > 0 {
			cut = cut % n
		}
		gzr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			return // header itself truncated; OpenFile rejects this upfront
		}
		r := NewReader(gzr, TSV).Quarantine(0.99)
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				return
			}
			if err != nil && !errors.Is(err, ErrErrorBudget) {
				t.Fatalf("truncated gzip hard-failed a quarantining reader: %v", err)
			}
			if err != nil {
				return
			}
		}
	})
}

// FuzzAddBatchMatchesAdd drives the columnar aggregator against the scalar
// reference on arbitrary row streams. Each input byte picks a row from a
// small pool of function and non-function FQDNs, days (some outside the
// window), rtypes and rdata, and may mangle it the three ways a corrupting
// feed hook does (empty FQDN, negative request_cnt, last_seen before
// first_seen). Mangles go through At → mutate → Set exactly as the
// pipeline's hooks do, so the empty FQDN gets interned mid-stream into a
// table that already issued other symbols. The batch side flushes every few
// rows through one reused batch, like a streaming shard.
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
	})
}
