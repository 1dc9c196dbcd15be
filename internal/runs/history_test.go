package runs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func benchSetFixture(ns, allocs float64) *BenchSet {
	return &BenchSet{
		Stamp: testStamp,
		Results: []BenchResult{
			{Name: "BenchmarkTable2Resolution-8", Base: "BenchmarkTable2Resolution", Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs},
			{Name: "BenchmarkTable2Resolution-8", Base: "BenchmarkTable2Resolution", Iterations: 10, NsPerOp: ns + 2, AllocsPerOp: allocs},
			{Name: "BenchmarkTop10Share-8", Base: "BenchmarkTop10Share", Iterations: 100, NsPerOp: ns / 10},
		},
	}
}

// readLedger decodes every record of a history file, oldest first.
func readLedger(t *testing.T, path string) []HistoryEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []HistoryEntry
	for dec := json.NewDecoder(f); dec.More(); {
		var e HistoryEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestHistoryAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), HistoryFile)
	e1 := HistoryEntryFrom(benchSetFixture(1000, 50), "pr-5", "2026-08-01T00:00:00Z")
	e2 := HistoryEntryFrom(benchSetFixture(800, 40), "pr-6", "2026-08-08T00:00:00Z")
	if err := AppendHistory(path, e1); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	got := readLedger(t, path)
	if len(got) != 2 || got[0].Label != "pr-5" || got[1].Label != "pr-6" {
		t.Fatalf("history order wrong: %+v", got)
	}
	// Means over the -count repeats: (1000+1002)/2.
	if ns := got[0].Bench["BenchmarkTable2Resolution"].NsPerOp; ns != 1001 {
		t.Fatalf("mean ns/op: want 1001, got %v", ns)
	}
	if a := got[0].Bench["BenchmarkTable2Resolution"].AllocsPerOp; a != 50 {
		t.Fatalf("mean allocs/op: want 50, got %v", a)
	}
	if got[1].Stamp != testStamp {
		t.Fatalf("stamp did not round-trip: %+v", got[1].Stamp)
	}
}

func TestHistoryRejectsEmptyEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), HistoryFile)
	if err := AppendHistory(path, HistoryEntry{Label: "empty"}); err == nil {
		t.Fatal("empty bench map must be rejected")
	}
}
