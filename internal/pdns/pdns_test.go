package pdns

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/providers"
)

func date(y int, m time.Month, d int) Date { return NewDate(y, m, d) }

func TestDateRoundTrip(t *testing.T) {
	d := date(2022, time.April, 1)
	if d.String() != "2022-04-01" {
		t.Errorf("String() = %q", d.String())
	}
	p, err := ParseDate("2022-04-01")
	if err != nil || p != d {
		t.Errorf("ParseDate = %v, %v", p, err)
	}
	if _, err := ParseDate("04/01/2022"); err == nil {
		t.Error("ParseDate accepted non-ISO date")
	}
	if d.AddDays(30) != date(2022, time.May, 1) {
		t.Errorf("AddDays(30) = %v", d.AddDays(30))
	}
	if date(2024, time.March, 31).Sub(d) != 730 {
		t.Errorf("window length = %d days, want 730", date(2024, time.March, 31).Sub(d))
	}
	if date(2023, time.July, 19).Month() != date(2023, time.July, 1) {
		t.Error("Month() did not truncate to first of month")
	}
}

func mkRecord(fqdn string, day Date, rt RType, rdata string, cnt int64) Record {
	ts := day.Time().Add(3 * time.Hour)
	return Record{
		FQDN: fqdn, RType: rt, RData: rdata,
		FirstSeen: ts, LastSeen: ts.Add(10 * time.Minute),
		RequestCnt: cnt, PDate: day,
	}
}

func TestRecordValidate(t *testing.T) {
	d := date(2023, time.January, 5)
	good := mkRecord("a.example", d, TypeA, "1.2.3.4", 7)
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := good
	bad.FQDN = ""
	if bad.Validate() == nil {
		t.Error("empty fqdn accepted")
	}
	bad = good
	bad.RequestCnt = -1
	if bad.Validate() == nil {
		t.Error("negative request_cnt accepted")
	}
	bad = good
	bad.LastSeen = bad.FirstSeen.Add(-time.Hour)
	if bad.Validate() == nil {
		t.Error("last_seen before first_seen accepted")
	}
	bad = good
	bad.PDate = d.AddDays(1)
	if bad.Validate() == nil {
		t.Error("first_seen outside pdate accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := date(2022, time.June, 10)
	recs := []Record{
		mkRecord("1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com", d, TypeCNAME, "gz.scf.tencentcs.com", 12),
		mkRecord("x.lambda-url.us-east-1.on.aws", d.AddDays(1), TypeA, "3.4.5.6", 1),
		mkRecord("y.lambda-url.us-east-1.on.aws", d.AddDays(2), TypeAAAA, "2600::1", 99),
	}
	for _, format := range []Format{JSONL, TSV} {
		var buf bytes.Buffer
		w := NewWriter(&buf, format)
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatalf("format %d write: %v", format, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != int64(len(recs)) {
			t.Errorf("Count = %d", w.Count())
		}
		got, err := decodeAll(buf.Bytes(), format)
		if err != nil {
			t.Fatalf("format %d decode: %v", format, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("format %d: read %d records, want %d", format, len(got), len(recs))
		}
		for i := range recs {
			if !sameRecord(got[i], recs[i]) {
				t.Errorf("format %d record %d: got %+v, want %+v", format, i, got[i], recs[i])
			}
		}
	}
}

// TestTSVMalformed keeps the reference decoder honest: a line that breaks
// the schema must not decode.
func TestTSVMalformed(t *testing.T) {
	lines := []string{
		"too\tfew\tcolumns",
		"f\tnotanint\trdata\t0\t0\t1\t100",
		"f\t1\trdata\tx\t0\t1\t100",
		"f\t1\trdata\t0\t0\tx\t100",
		"f\t1\trdata\t0\t0\t1\tx",
	}
	for _, l := range lines {
		var rec Record
		if err := parseTSV(l, &rec); err == nil {
			t.Errorf("malformed line %q accepted", l)
		}
	}
}

func testWindow() (Date, Date) {
	return date(2022, time.April, 1), date(2024, time.March, 31)
}

func TestAggregatorBasics(t *testing.T) {
	start, end := testWindow()
	a := NewAggregator(nil, start, end)
	fqdn := "1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com"

	// Two rtypes on the same day must count one distinct day.
	r1 := mkRecord(fqdn, start.AddDays(10), TypeA, "1.1.1.1", 5)
	r2 := mkRecord(fqdn, start.AddDays(10), TypeCNAME, "gz.scf.tencentcs.com", 3)
	r3 := mkRecord(fqdn, start.AddDays(20), TypeA, "1.1.1.1", 2)
	for _, r := range []Record{r1, r2, r3} {
		a.Add(&r)
	}
	// A non-function domain and an invalid record must be ignored.
	junk := mkRecord("www.example.com", start, TypeA, "9.9.9.9", 100)
	a.Add(&junk)
	bad := mkRecord(fqdn, start, TypeA, "1.1.1.1", -5)
	a.Add(&bad)

	ag := a.Finish()
	if ag.TotalDomains() != 1 {
		t.Fatalf("TotalDomains = %d, want 1", ag.TotalDomains())
	}
	fs := ag.ByFQDN[fqdn]
	if fs.Provider != providers.Tencent {
		t.Errorf("provider = %v", fs.Provider)
	}
	if fs.Region != "ap-guangzhou" {
		t.Errorf("region = %q", fs.Region)
	}
	if fs.DaysCount != 2 {
		t.Errorf("DaysCount = %d, want 2", fs.DaysCount)
	}
	if fs.TotalRequest != 10 {
		t.Errorf("TotalRequest = %d, want 10", fs.TotalRequest)
	}
	if fs.FirstSeenAll != start.AddDays(10) || fs.LastSeenAll != start.AddDays(20) {
		t.Errorf("first/last = %v/%v", fs.FirstSeenAll, fs.LastSeenAll)
	}
	if fs.Lifespan() != 11 {
		t.Errorf("Lifespan = %d, want 11", fs.Lifespan())
	}
	if got := fs.ActivityDensity(); got < 0.18 || got > 0.19 {
		t.Errorf("ActivityDensity = %v, want 2/11", got)
	}

	ps := ag.ByProvider[providers.Tencent]
	if ps.Domains != 1 || ps.Requests != 10 {
		t.Errorf("provider stats = %+v", ps)
	}
	if got := ps.RTypeShare(TypeA); got != 0.7 {
		t.Errorf("A share = %v, want 0.7", got)
	}
	if got := ps.RTypeShare(TypeCNAME); got != 0.3 {
		t.Errorf("CNAME share = %v, want 0.3", got)
	}
	if ag.Scanned != 5 || ag.Matched != 3 || ag.Dropped != 1 {
		t.Errorf("scanned/matched/dropped = %d/%d/%d", ag.Scanned, ag.Matched, ag.Dropped)
	}
	if ag.NewPerDay[start.AddDays(10)] != 1 {
		t.Errorf("NewPerDay = %v", ag.NewPerDay)
	}
	if ag.MonthlyReq[providers.Tencent][start.AddDays(10).Month()] != 10 {
		t.Errorf("MonthlyReq = %v", ag.MonthlyReq[providers.Tencent])
	}
}

func TestAggregatorWindowClipping(t *testing.T) {
	start, end := testWindow()
	a := NewAggregator(nil, start, end)
	fqdn := "x.lambda-url.us-east-1.on.aws"
	before := mkRecord(fqdn, start.AddDays(-1), TypeA, "1.1.1.1", 5)
	after := mkRecord(fqdn, end.AddDays(1), TypeA, "1.1.1.1", 5)
	inside := mkRecord(fqdn, start, TypeA, "1.1.1.1", 5)
	a.Add(&before)
	a.Add(&after)
	a.Add(&inside)
	ag := a.Finish()
	if ag.Matched != 1 {
		t.Errorf("Matched = %d, want 1 (window clipping)", ag.Matched)
	}
	if ag.ByFQDN[fqdn].TotalRequest != 5 {
		t.Errorf("TotalRequest = %d", ag.ByFQDN[fqdn].TotalRequest)
	}
}

func TestTop10Share(t *testing.T) {
	rs := &RTypeStats{ByRData: map[string]int64{}}
	// Three rdata values: fewer than ten means share is 1.
	for _, kv := range []struct {
		k string
		v int64
	}{{"a", 5}, {"b", 3}, {"c", 2}} {
		rs.ByRData[kv.k] = kv.v
		rs.Requests += kv.v
	}
	if got := rs.Top10Share(); got != 1 {
		t.Errorf("Top10Share = %v, want 1", got)
	}
	// Add twenty singleton rdata values: top10 = (5+3+2 + 7 singletons)/30.
	for i := 0; i < 20; i++ {
		rs.ByRData[string(rune('d'+i))] = 1
		rs.Requests++
	}
	want := float64(5+3+2+7) / 30
	if got := rs.Top10Share(); got != want {
		t.Errorf("Top10Share = %v, want %v", got, want)
	}
	if rs.RDataCnt() != 23 {
		t.Errorf("RDataCnt = %d", rs.RDataCnt())
	}
	empty := &RTypeStats{ByRData: map[string]int64{}}
	if empty.Top10Share() != 0 {
		t.Error("empty Top10Share should be 0")
	}
}

func TestPerFunctionStatsExcludesSharedDomains(t *testing.T) {
	start, end := testWindow()
	a := NewAggregator(nil, start, end)
	recs := []Record{
		mkRecord("x.lambda-url.us-east-1.on.aws", start, TypeA, "1.1.1.1", 1),
		mkRecord("us-central1-proj.cloudfunctions.net", start, TypeA, "2.2.2.2", 1),
		mkRecord("eu-gb.functions.appdomain.cloud", start, TypeCNAME, "x.cloudflare.net", 1),
	}
	for i := range recs {
		a.Add(&recs[i])
	}
	ag := a.Finish()
	pf := ag.PerFunctionStats()
	if len(pf) != 1 || pf[0].Provider != providers.AWS {
		t.Errorf("PerFunctionStats = %v", pf)
	}
	if ag.TotalDomains() != 3 {
		t.Errorf("TotalDomains = %d", ag.TotalDomains())
	}
}

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64), n: n} }

func TestBitset(t *testing.T) {
	b := newBitset(731)
	if !b.setIfUnset(0) || b.setIfUnset(0) {
		t.Error("bit 0 semantics wrong")
	}
	if !b.setIfUnset(730) || b.setIfUnset(730) {
		t.Error("bit 730 semantics wrong")
	}
	if b.setIfUnset(731) || b.setIfUnset(-1) {
		t.Error("out-of-range set should report false")
	}
}

// Property: DaysCount equals the number of distinct pdates fed in, for any
// multiset of days.
func TestQuickDaysCount(t *testing.T) {
	start, end := testWindow()
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		a := NewAggregator(nil, start, end)
		fqdn := "x.lambda-url.us-east-1.on.aws"
		distinct := map[Date]bool{}
		for _, off := range offsets {
			day := start.AddDays(int(off) % 731)
			distinct[day] = true
			r := mkRecord(fqdn, day, TypeA, "1.1.1.1", 1)
			a.Add(&r)
		}
		ag := a.Finish()
		return ag.ByFQDN[fqdn].DaysCount == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: codec round-trip is the identity on arbitrary printable records.
func TestQuickTSVRoundTrip(t *testing.T) {
	start, _ := testWindow()
	f := func(cnt uint32, off uint16, sel uint8) bool {
		day := start.AddDays(int(off) % 731)
		rt := []RType{TypeA, TypeCNAME, TypeAAAA}[int(sel)%3]
		rec := mkRecord("f.lambda-url.us-east-1.on.aws", day, rt, "10.0.0.1", int64(cnt))
		var buf bytes.Buffer
		w := NewWriter(&buf, TSV)
		if err := w.Write(&rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		recs, err := decodeAll(buf.Bytes(), TSV)
		if err != nil || len(recs) != 1 {
			return false
		}
		return sameRecord(recs[0], rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
