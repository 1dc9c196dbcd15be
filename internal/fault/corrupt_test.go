package fault

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pdns"
)

func testRecord(i int) pdns.Record {
	first := time.Date(2024, 3, 1+i%28, 8, 0, 0, 0, time.UTC)
	return pdns.Record{
		FQDN:       fmt.Sprintf("fn-%d.lambda-url.us-east-1.on.aws", i),
		RType:      pdns.TypeA,
		RData:      fmt.Sprintf("52.0.%d.%d", i/250, i%250),
		FirstSeen:  first,
		LastSeen:   first.Add(6 * time.Hour),
		RequestCnt: int64(10 + i),
		PDate:      pdns.DateOf(first),
	}
}

func TestCorruptRecordDeterministicAndInvalid(t *testing.T) {
	prof := Profile{Name: "t", Seed: 5, FeedCorrupt: 0.05}
	const n = 5000

	run := func(scaleCnt int64) (hits int, corrupted []int) {
		in := New(prof)
		for i := 0; i < n; i++ {
			rec := testRecord(i)
			// Simulate the cache-model ablation: request counts differ
			// between runs but identity fields do not.
			rec.RequestCnt *= scaleCnt
			if in.CorruptRecord(&rec) {
				hits++
				corrupted = append(corrupted, i)
				if rec.Validate() == nil {
					t.Fatalf("corrupted record %d still validates: %+v", i, rec)
				}
			} else if rec.Validate() != nil {
				t.Fatalf("untouched record %d fails validation: %+v", i, rec)
			}
		}
		return hits, corrupted
	}

	hits1, set1 := run(1)
	hits2, set2 := run(3)
	if hits1 == 0 {
		t.Fatal("no record was ever corrupted at 5% over 5000 records")
	}
	if float64(hits1) < 0.02*n || float64(hits1) > 0.10*n {
		t.Errorf("corruption rate %d/%d far from 5%%", hits1, n)
	}
	// RequestCnt must not feed the decision: same records corrupted whether
	// or not the cache model rescaled the counts.
	if hits1 != hits2 || fmt.Sprint(set1) != fmt.Sprint(set2) {
		t.Error("corruption schedule depends on RequestCnt")
	}
}
