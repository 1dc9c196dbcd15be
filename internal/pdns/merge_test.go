package pdns

import (
	"reflect"
	"testing"
	"time"
)

func TestMergeEquivalentToSinglePass(t *testing.T) {
	start, end := testWindow()
	fqdnA := "a.lambda-url.us-east-1.on.aws"
	fqdnB := "b-c-abcdefghij.cn-shanghai.fcapp.run"
	recs := []Record{
		mkRecord(fqdnA, start.AddDays(1), TypeA, "1.1.1.1", 10),
		mkRecord(fqdnA, start.AddDays(2), TypeAAAA, "2600::1", 5),
		mkRecord(fqdnB, start.AddDays(3), TypeCNAME, "x.aliyuncs.com", 7),
		mkRecord(fqdnB, start.AddDays(9), TypeA, "2.2.2.2", 3),
	}

	single := NewAggregator(nil, start, end)
	for i := range recs {
		single.Add(&recs[i])
	}
	want := single.Finish()

	// Shard by FQDN: A-records to shard 0, B to shard 1.
	s0 := NewAggregator(nil, start, end)
	s1 := NewAggregator(nil, start, end)
	for i := range recs {
		if recs[i].FQDN == fqdnA {
			s0.Add(&recs[i])
		} else {
			s1.Add(&recs[i])
		}
	}
	got := s0.Finish()
	if err := got.Merge(s1.Finish()); err != nil {
		t.Fatal(err)
	}

	if got.TotalDomains() != want.TotalDomains() || got.TotalRequests() != want.TotalRequests() {
		t.Errorf("merged totals = %d/%d, want %d/%d",
			got.TotalDomains(), got.TotalRequests(), want.TotalDomains(), want.TotalRequests())
	}
	for fqdn, w := range want.ByFQDN {
		g := got.ByFQDN[fqdn]
		if g == nil {
			t.Fatalf("merged aggregate missing %s", fqdn)
		}
		if g.FirstSeenAll != w.FirstSeenAll || g.LastSeenAll != w.LastSeenAll ||
			g.DaysCount != w.DaysCount || g.TotalRequest != w.TotalRequest {
			t.Errorf("%s: merged %+v, want %+v", fqdn, g, w)
		}
	}
	for id, w := range want.ByProvider {
		g := got.ByProvider[id]
		if g.Domains != w.Domains || g.Requests != w.Requests {
			t.Errorf("provider %v: merged %d/%d, want %d/%d", id, g.Domains, g.Requests, w.Domains, w.Requests)
		}
		for tpe, wrs := range w.ByRType {
			grs := g.ByRType[tpe]
			if grs == nil || grs.Requests != wrs.Requests || !reflect.DeepEqual(grs.ByRData, wrs.ByRData) {
				t.Errorf("provider %v type %v: merged %+v, want %+v", id, tpe, grs, wrs)
			}
		}
	}
	if !reflect.DeepEqual(got.NewPerDay, want.NewPerDay) {
		t.Errorf("NewPerDay merged %v, want %v", got.NewPerDay, want.NewPerDay)
	}
}

func TestMergeWindowMismatch(t *testing.T) {
	start, end := testWindow()
	a := NewAggregator(nil, start, end).Finish()
	b := NewAggregator(nil, start, end.AddDays(-1)).Finish()
	if err := a.Merge(b); err == nil {
		t.Error("window mismatch accepted")
	}
}

func TestShardByFQDNStable(t *testing.T) {
	s := ShardByFQDN("x.lambda-url.us-east-1.on.aws", 8)
	for i := 0; i < 10; i++ {
		if ShardByFQDN("x.lambda-url.us-east-1.on.aws", 8) != s {
			t.Fatal("shard not stable")
		}
	}
	if ShardByFQDN("anything", 1) != 0 {
		t.Error("single shard must be 0")
	}
	// Distribution sanity over many fqdns.
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[ShardByFQDN(string(rune('a'+i%26))+"x"+time.Duration(i).String(), 4)]++
	}
	for i, c := range counts {
		if c < 500 {
			t.Errorf("shard %d badly unbalanced: %d/4000", i, c)
		}
	}
}
