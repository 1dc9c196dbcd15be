package runs

import (
	"encoding/json"
	"fmt"
	"os"
)

// HistoryFile is the repo-root perf ledger: one JSONL record per
// `make bench-json` capture, append-only, committed alongside
// BENCH_pipeline.json so successive changes accumulate a time series. Each
// record carries its capture's Stamp; only records with equal stamps compare.
const HistoryFile = "BENCH_history.jsonl"

// BenchPoint is one benchmark's mean figures within a history entry.
type BenchPoint struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// HistoryEntry is one ledger record: a bench capture reduced to
// per-benchmark means, stamped with where and when it was taken. CapturedAt
// and Label are provenance only.
type HistoryEntry struct {
	CapturedAt string `json:"captured_at,omitempty"`
	Label      string `json:"label,omitempty"`
	Stamp
	Bench map[string]BenchPoint `json:"bench"`
}

// MeanPoints reduces the set to per-base-benchmark mean ns/op, B/op, and
// allocs/op over the -count repeats.
func (s *BenchSet) MeanPoints() map[string]BenchPoint {
	sums := map[string]BenchPoint{}
	ns := map[string]int{}
	for _, r := range s.Results {
		p := sums[r.Base]
		p.NsPerOp += r.NsPerOp
		p.BytesPerOp += r.BytesPerOp
		p.AllocsPerOp += r.AllocsPerOp
		sums[r.Base] = p
		ns[r.Base]++
	}
	out := make(map[string]BenchPoint, len(sums))
	for k, p := range sums {
		n := float64(ns[k])
		out[k] = BenchPoint{NsPerOp: p.NsPerOp / n, BytesPerOp: p.BytesPerOp / n, AllocsPerOp: p.AllocsPerOp / n}
	}
	return out
}

// HistoryEntryFrom reduces a bench capture to one ledger record.
func HistoryEntryFrom(set *BenchSet, label, capturedAt string) HistoryEntry {
	return HistoryEntry{
		CapturedAt: capturedAt,
		Label:      label,
		Stamp:      set.Stamp,
		Bench:      set.MeanPoints(),
	}
}

// AppendHistory appends e as one JSON line to the ledger file, creating
// it when missing. Append-only by construction: the existing series is
// never rewritten.
func AppendHistory(path string, e HistoryEntry) error {
	if len(e.Bench) == 0 {
		return fmt.Errorf("runs: history: refusing to append an entry with no benchmarks")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runs: history: %w", err)
	}
	werr := json.NewEncoder(f).Encode(e)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("runs: history: %w", werr)
	}
	return nil
}
