package pdns

import (
	"io"
	"path/filepath"
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

func TestFileRoundTripFormats(t *testing.T) {
	start, _ := testWindow()
	recs := []Record{
		mkRecord("a.lambda-url.us-east-1.on.aws", start, TypeA, "1.1.1.1", 3),
		mkRecord("b.lambda-url.us-east-1.on.aws", start.AddDays(1), TypeAAAA, "2600::2", 9),
	}
	dir := t.TempDir()
	for _, name := range []string{"d.tsv", "d.jsonl", "d.tsv.gz", "d.jsonl.gz"} {
		path := filepath.Join(dir, name)
		w, closer, err := CreateFile(path)
		if err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}

		r, rcloser, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		var got []Record
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: read: %v", name, err)
			}
			got = append(got, rec)
		}
		rcloser.Close()
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i].FQDN != recs[i].FQDN || got[i].RequestCnt != recs[i].RequestCnt {
				t.Errorf("%s record %d: %+v", name, i, got[i])
			}
		}
	}
}

func TestFileUnknownExtension(t *testing.T) {
	if _, _, err := OpenFile("x.csv"); err == nil {
		t.Error("unknown extension accepted")
	}
	if _, _, err := CreateFile("/nonexistent-dir-zz/x.tsv"); err == nil {
		t.Error("uncreatable path accepted")
	}
	if _, _, err := OpenFile(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}
