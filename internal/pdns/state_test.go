package pdns

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// stateRecords builds a deterministic record stream spanning two providers,
// several rtypes, and a spread of days, so every serialised map has content.
func stateRecords(start Date) []Record {
	fqdns := []string{
		"1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com",
		"0987654321-jihgfedcba-ap-shanghai.scf.tencentcs.com",
		"alpha.lambda-url.us-east-1.on.aws",
		"beta.lambda-url.eu-west-2.on.aws",
	}
	var out []Record
	for i, fqdn := range fqdns {
		for d := 0; d < 40; d += i + 3 {
			day := start.AddDays(d)
			out = append(out, mkRecord(fqdn, day, TypeA, "1.2.3.4", int64(3+i*7+d)))
			if d%2 == 0 {
				out = append(out, mkRecord(fqdn, day, TypeCNAME, "gw.example.com", int64(1+d)))
			}
		}
	}
	return out
}

func stateAggregator(t *testing.T, recs []Record) *Aggregator {
	t.Helper()
	start := date(2022, time.April, 1)
	agg := NewAggregator(nil, start, start.AddDays(729))
	for i := range recs {
		agg.Add(&recs[i])
	}
	return agg
}

// TestAggregatorStateDeterministic: the same logical state must serialise to
// the same bytes (maps are emitted in sorted order), so checkpoint files can
// be fingerprinted like any other artifact.
func TestAggregatorStateDeterministic(t *testing.T) {
	recs := stateRecords(date(2022, time.April, 1))
	var a, b bytes.Buffer
	if err := EncodeAggregate(&a, stateAggregator(t, recs).Finish()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeAggregate(&b, stateAggregator(t, recs).Finish()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same aggregate differ")
	}
}

// TestAggregateRoundTrip covers the stage-boundary snapshot: a finished
// Aggregate survives encode/decode bit-for-bit.
func TestAggregateRoundTrip(t *testing.T) {
	want := stateAggregator(t, stateRecords(date(2022, time.April, 1))).Finish()
	var buf bytes.Buffer
	if err := EncodeAggregate(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggregate(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded Aggregate differs from the encoded one")
	}
}

// TestStateModeMismatch: a blob whose mode tag is not the aggregate's must
// fail loudly, not mis-parse.
func TestStateModeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAggregate(&buf, stateAggregator(t, stateRecords(date(2022, time.April, 1))).Finish()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[1] = 'S' // byte 0 is the version uvarint, byte 1 the mode tag
	if _, err := DecodeAggregate(data); err == nil {
		t.Error("DecodeAggregate accepted a blob with a foreign mode tag")
	}
}

// TestStateDecodeTruncated: every truncation of a valid blob must error, not
// panic or succeed.
func TestStateDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAggregate(&buf, stateAggregator(t, stateRecords(date(2022, time.April, 1))).Finish()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n += 1 + n/16 {
		if _, err := DecodeAggregate(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
	}
}
