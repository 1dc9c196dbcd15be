package runs

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// PerfReportInput is everything the rendered perf-trajectory report reads:
// the scenario-matrix cell archives, optional per-cell baselines, the
// current and baseline bench captures, and the committed trajectory. All of
// it comes from files — RenderPerfReport itself consults no clock, no
// environment, nothing outside its argument — so two renders over identical
// inputs are byte-identical.
type PerfReportInput struct {
	// Cells are the matrix cell archives (ListMatrix order: sorted by cell
	// ID, which is also their directory name).
	Cells []*Record
	// Baselines maps cell ID to that cell's baseline archive, when one
	// exists; cells without a baseline render without delta columns.
	Baselines map[string]*Record
	// Bench is the current capture (BENCH_pipeline.json), BenchBase the
	// baseline to delta against; either may be nil.
	Bench     *BenchSet
	BenchBase *BenchSet
	// History is the perf trajectory, oldest first.
	History []HistoryEntry
}

// sparkRunes are the eight-level resolution of the trajectory sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// RenderPerfReport renders the deterministic Markdown perf report:
// per-cell stage walls, probe p99 by provider, resource high-water marks,
// bench deltas vs baseline, and the ns/op trajectory across history
// records. Sections with no data are omitted rather than rendered empty.
func RenderPerfReport(in PerfReportInput) string {
	var b strings.Builder
	b.WriteString("# Performance report\n\n")
	fmt.Fprintf(&b, "Scenario cells: %d · bench history records: %d\n", len(in.Cells), len(in.History))

	renderCellStages(&b, in)
	renderCellProviders(&b, in.Cells)
	renderCellResources(&b, in.Cells)
	renderBenchSection(&b, in.Bench, in.BenchBase)
	renderTrajectory(&b, in.History)
	return b.String()
}

// cellID is the archive slot name of a matrix record.
func cellID(r *Record) string { return filepath.Base(r.Dir) }

// rootStages returns the union of top-level stage paths across cells, in
// the order the first cell that has each stage recorded it — pipeline
// execution order, not alphabetical, so the table reads left to right the
// way the run executed.
func rootStages(cells []*Record) []string {
	var order []string
	seen := map[string]bool{}
	for _, rec := range cells {
		for _, st := range rec.Timings.Stages {
			if strings.Contains(st.Path, "/") || seen[st.Path] {
				continue
			}
			seen[st.Path] = true
			order = append(order, st.Path)
		}
	}
	return order
}

func renderCellStages(b *strings.Builder, in PerfReportInput) {
	if len(in.Cells) == 0 {
		return
	}
	stages := rootStages(in.Cells)
	b.WriteString("\n## Scenario matrix — stage walls\n\n")
	b.WriteString("Cell IDs are `s<scale>-w<workers>-c<chaos>`; Δ columns compare against the cell's baseline archive when one exists.\n\n")
	b.WriteString("| Cell | Elapsed |")
	for _, s := range stages {
		fmt.Fprintf(b, " %s |", s)
	}
	b.WriteString("\n|---|---|")
	b.WriteString(strings.Repeat("---|", len(stages)))
	b.WriteString("\n")
	for _, rec := range in.Cells {
		id := cellID(rec)
		fmt.Fprintf(b, "| %s | %s |", id, fmtWall(rec.Timings.ElapsedNS))
		base := in.Baselines[id]
		for _, s := range stages {
			st := rec.Timings.Stage(s)
			if st == nil {
				b.WriteString(" - |")
				continue
			}
			cell := fmtWall(st.WallNS)
			if base != nil {
				if bst := base.Timings.Stage(s); bst != nil && bst.WallNS > 0 {
					cell += fmt.Sprintf(" (%+.0f%%)", 100*(float64(st.WallNS)/float64(bst.WallNS)-1))
				}
			}
			fmt.Fprintf(b, " %s |", cell)
		}
		b.WriteString("\n")
	}
}

func renderCellProviders(b *strings.Builder, cells []*Record) {
	if len(cells) == 0 {
		return
	}
	perCell := make([]map[string]providerSide, len(cells))
	provSet := map[string]bool{}
	for i, rec := range cells {
		perCell[i] = providerStats(rec)
		for name := range perCell[i] {
			provSet[name] = true
		}
	}
	if len(provSet) == 0 {
		return
	}
	providers := make([]string, 0, len(provSet))
	for name := range provSet {
		providers = append(providers, name)
	}
	sort.Strings(providers)
	b.WriteString("\n## Probe p99 by provider\n\n")
	b.WriteString("Per-cell probe request p99 from the labeled latency vectors; `*` marks a clamped estimate (rank fell in the +Inf bucket, value is a floor).\n\n")
	b.WriteString("| Cell |")
	for _, p := range providers {
		fmt.Fprintf(b, " %s |", p)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(providers)))
	b.WriteString("\n")
	for i, rec := range cells {
		fmt.Fprintf(b, "| %s |", cellID(rec))
		for _, p := range providers {
			s, ok := perCell[i][p]
			if !ok || s.latN == 0 {
				b.WriteString(" - |")
				continue
			}
			cell := fmtSecMD(s.p99)
			if s.clamped {
				cell += "*"
			}
			fmt.Fprintf(b, " %s |", cell)
		}
		b.WriteString("\n")
	}
}

func renderCellResources(b *strings.Builder, cells []*Record) {
	any := false
	for _, rec := range cells {
		if len(rec.Timings.Resources) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	b.WriteString("\n## Resource high-water marks\n\n")
	b.WriteString("Peak runtime state per cell across all stages (machine-varying; excluded from golden fingerprints). The peak-heap stage names where the heap high-water mark occurred.\n\n")
	b.WriteString("| Cell | Peak heap | Peak RSS | Peak goroutines | GCs | GC pause p99 | Peak-heap stage |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, rec := range cells {
		rs := rec.Timings.Resources
		if len(rs) == 0 {
			fmt.Fprintf(b, "| %s | - | - | - | - | - | - |\n", cellID(rec))
			continue
		}
		var heap, rss, gor, gcs, pause int64
		peakStage := ""
		for _, st := range rs {
			if st.MaxHeapInuseBytes > heap {
				heap, peakStage = st.MaxHeapInuseBytes, st.Stage
			}
			if st.MaxRSSBytes > rss {
				rss = st.MaxRSSBytes
			}
			if st.MaxGoroutines > gor {
				gor = st.MaxGoroutines
			}
			gcs += st.GCCount
			if st.GCPauseP99NS > pause {
				pause = st.GCPauseP99NS
			}
		}
		fmt.Fprintf(b, "| %s | %s | %s | %d | %d | %s | %s |\n",
			cellID(rec), fmtBytes(heap), fmtBytes(rss), gor, gcs, fmtWall(pause), peakStage)
	}
}

func renderBenchSection(b *strings.Builder, cur, base *BenchSet) {
	if cur == nil {
		return
	}
	curPts := cur.MeanPoints()
	var basePts map[string]BenchPoint
	if base != nil {
		basePts = base.MeanPoints()
	}
	names := make([]string, 0, len(curPts))
	for name := range curPts {
		names = append(names, name)
	}
	for name := range basePts {
		if _, ok := curPts[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	b.WriteString("\n## Benchmarks\n\n")
	if basePts == nil {
		b.WriteString("Mean over repeats of the current capture (no baseline given).\n\n")
		b.WriteString("| Benchmark | ns/op | B/op | allocs/op |\n|---|---|---|---|\n")
		for _, name := range names {
			p := curPts[name]
			fmt.Fprintf(b, "| %s | %.0f | %.0f | %.1f |\n", name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp)
		}
		return
	}
	b.WriteString("Mean over repeats, candidate vs baseline; Δ is the candidate as a change over baseline.\n\n")
	b.WriteString("| Benchmark | ns/op (base) | ns/op | Δns/op | allocs/op (base) | allocs/op | Δallocs |\n|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		cp, okC := curPts[name]
		bp, okB := basePts[name]
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %s | %s |\n", name,
			fmtBenchF(bp.NsPerOp, okB, "%.0f"), fmtBenchF(cp.NsPerOp, okC, "%.0f"),
			fmtDeltaPct(bp.NsPerOp, cp.NsPerOp, okB && okC),
			fmtBenchF(bp.AllocsPerOp, okB, "%.1f"), fmtBenchF(cp.AllocsPerOp, okC, "%.1f"),
			fmtDeltaPct(bp.AllocsPerOp, cp.AllocsPerOp, okB && okC))
	}
}

func renderTrajectory(b *strings.Builder, history []HistoryEntry) {
	if len(history) == 0 {
		return
	}
	b.WriteString("\n## Perf trajectory\n\n")
	fmt.Fprintf(b, "ns/op across the %d committed bench captures, oldest → newest. Sparklines normalise each benchmark to its own min–max range.\n\n", len(history))
	b.WriteString("| # | Label | Captured | Platform |\n|---|---|---|---|\n")
	for i, e := range history {
		fmt.Fprintf(b, "| %d | %s | %s | %s |\n", i+1,
			orDash(e.Label), orDash(e.CapturedAt), orDash(strings.TrimSpace(e.Goos+"/"+e.Goarch)))
	}
	b.WriteString("\n| Benchmark | Trajectory | First | Last | Δ |\n|---|---|---|---|---|\n")
	for _, name := range historyBenchNames(history) {
		var series []float64
		for _, e := range history {
			if p, ok := e.Bench[name]; ok {
				series = append(series, p.NsPerOp)
			}
		}
		if len(series) == 0 {
			continue
		}
		first, last := series[0], series[len(series)-1]
		fmt.Fprintf(b, "| %s | `%s` | %.0f | %.0f | %s |\n",
			name, sparkline(series), first, last, fmtDeltaPct(first, last, true))
	}
}

// sparkline renders a min–max-normalised series with eight-level block
// runes; a flat series renders at the lowest level.
func sparkline(series []float64) string {
	lo, hi := series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var out strings.Builder
	for _, v := range series {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		out.WriteRune(sparkRunes[idx])
	}
	return out.String()
}

// fmtWall formats nanoseconds for the Markdown tables ("-" when negative).
func fmtWall(ns int64) string {
	if ns < 0 {
		return "-"
	}
	return strings.ReplaceAll(time.Duration(ns).Round(10*time.Microsecond).String(), "µs", "us")
}

// fmtSecMD formats a seconds value as a rounded duration.
func fmtSecMD(s float64) string {
	if s == 0 {
		return "-"
	}
	return strings.ReplaceAll(time.Duration(s*float64(time.Second)).Round(10*time.Microsecond).String(), "µs", "us")
}

// fmtBytes renders a byte count in binary units with one decimal.
func fmtBytes(n int64) string {
	switch {
	case n <= 0:
		return "-"
	case n < 1<<10:
		return fmt.Sprintf("%d B", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	}
}

func fmtBenchF(v float64, ok bool, format string) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// fmtDeltaPct formats b relative to a as a signed percentage, "-" when
// either side is missing or a is zero (no meaningful ratio).
func fmtDeltaPct(a, b float64, ok bool) string {
	if !ok || a == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b/a-1))
}

func orDash(s string) string {
	if strings.Trim(s, "/ ") == "" {
		return "-"
	}
	return s
}
