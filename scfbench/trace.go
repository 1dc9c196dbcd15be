package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed region of a traced child, kept in memory and written
// out when the child ends. The benchmark records spans around its own
// calls into each layer and adopts the pipeline's stage spans as children.
type span struct {
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns"` // offset from the timed section's start
	WallNS   int64   `json:"wall_ns"`
	SelfNS   int64   `json:"self_ns"` // wall minus the time child spans cover
	Children []*span `json:"children,omitempty"`

	start time.Time
}

func newSpan(name string, start, end time.Time, children ...*span) *span {
	return &span{Name: name, WallNS: int64(end.Sub(start)), Children: children, start: start}
}

// spansFromRecords adopts the program's own span tree (obs.SpanRecord).
func spansFromRecords(recs []obs.SpanRecord) []*span {
	out := make([]*span, 0, len(recs))
	for _, rec := range recs {
		start, err := time.Parse(time.RFC3339Nano, rec.Start)
		if err != nil {
			continue
		}
		sp := newSpan(rec.Name, start, start.Add(time.Duration(rec.WallNS)), spansFromRecords(rec.Children)...)
		out = append(out, sp)
	}
	return out
}

// selfNS is the span's wall time minus the union of its children's
// intervals (clipped to the span), so overlapping children — parallel
// emission shards — are not subtracted twice.
func (s *span) selfNS() int64 {
	begin, end := s.start, s.start.Add(time.Duration(s.WallNS))
	type interval struct{ lo, hi time.Time }
	var ivs []interval
	for _, c := range s.Children {
		lo, hi := c.start, c.start.Add(time.Duration(c.WallNS))
		if lo.Before(begin) {
			lo = begin
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var reach time.Time
	for _, iv := range ivs {
		if iv.lo.Before(reach) {
			iv.lo = reach
		}
		if iv.hi.After(iv.lo) {
			covered += iv.hi.Sub(iv.lo)
			reach = iv.hi
		}
	}
	return s.WallNS - int64(covered)
}

// finish fills in every span's start offset and self time.
func (s *span) finish(origin time.Time) {
	s.StartNS = int64(s.start.Sub(origin))
	s.SelfNS = s.selfNS()
	for _, c := range s.Children {
		c.finish(origin)
	}
}

// traceFile is where a traced child of workload w on seed writes its spans.
func traceFile(w workloadSpec, seed int64) string {
	dir := os.Getenv("SCFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
}

// writeTrace writes the traced child's span tree: the timed section, then
// the layer pass.
func writeTrace(c *childRun, origin time.Time, timed *span, pass []*span) error {
	roots := append([]*span{timed}, pass...)
	for _, sp := range roots {
		sp.finish(origin)
	}
	b, err := json.MarshalIndent(roots, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := traceFile(c.w, c.seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
