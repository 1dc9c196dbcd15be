package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs/timeline"
)

// RenderTimeline renders a run's windowed-telemetry sequence as a Markdown
// table plus anomaly/breach callouts. A pure function of the window slice:
// the same timeline.jsonl renders to identical bytes every time, so the
// output is diffable and archivable.
func RenderTimeline(runID string, ws []timeline.Window) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Telemetry timeline — %s\n\n", runID)
	if len(ws) == 0 {
		b.WriteString("No timeline recorded (run with -sample-interval to capture one).\n")
		return b.String()
	}
	span := float64(ws[len(ws)-1].EndUS) / 1e6
	anoms, breaches := 0, 0
	for _, w := range ws {
		anoms += len(w.Anomalies)
		breaches += len(w.Breaches)
	}
	fmt.Fprintf(&b, "%d windows covering %.2fs — %d anomaly annotation(s), %d health breach(es).\n\n",
		len(ws), span, anoms, breaches)
	b.WriteString("| win | start | dur | stage | records | probes | probe p99 | heap peak | anom | breach |\n")
	b.WriteString("|--:|--:|--:|:--|--:|--:|--:|--:|--:|--:|\n")
	for _, w := range ws {
		stage := strings.Join(w.Stages, "→")
		if stage == "" {
			stage = w.Stage
		}
		p99 := "-"
		if h, ok := w.Hists["probe_request_seconds"]; ok {
			p99 = fmt.Sprintf("%.0fms", h.P99*1000)
		}
		heap := "-"
		if w.Resources != nil && w.Resources.HeapInuseBytes > 0 {
			heap = timelineBytes(w.Resources.HeapInuseBytes)
		}
		fmt.Fprintf(&b, "| %d | %.2fs | %dms | %s | %d | %d | %s | %s | %d | %d |\n",
			w.Index, float64(w.StartUS)/1e6, (w.EndUS-w.StartUS)/1000, stage,
			w.Counters["pdns_records_scanned_total"], w.Counters["probe_requests_total"],
			p99, heap, len(w.Anomalies), len(w.Breaches))
	}
	if anoms > 0 {
		b.WriteString("\n## Anomalies\n\n")
		for _, w := range ws {
			for _, a := range w.Anomalies {
				switch a.Kind {
				case "drift":
					fmt.Fprintf(&b, "- window %d: **%s** drift — delta %.0f vs EWMA mean %.2f (σ %.2f, z %.1f)\n",
						w.Index, a.Series, a.Value, a.Mean, a.Sigma, a.Score)
				default:
					fmt.Fprintf(&b, "- window %d: **%s** %s — delta %.0f\n", w.Index, a.Series, a.Kind, a.Value)
				}
			}
		}
	}
	if breaches > 0 {
		b.WriteString("\n## Health breaches\n\n")
		for _, w := range ws {
			for _, br := range w.Breaches {
				group := ""
				if br.Group != "" {
					group = "/" + br.Group
				}
				fmt.Fprintf(&b, "- window %d: **%s%s** — value %.4g over max %.4g\n",
					w.Index, br.Rule, group, br.Value, br.Max)
			}
		}
	}
	return b.String()
}

// RenderTimelineDiff aligns two runs' timelines window-by-window and
// localizes when their behaviour diverged: the first window whose anomaly
// annotations (series+kind sets) differ. Like RenderTimeline it is a pure
// function of its inputs.
func RenderTimelineDiff(aID, bID string, a, b []timeline.Window) string {
	var out strings.Builder
	fmt.Fprintf(&out, "# Timeline diff — %s vs %s\n\n", aID, bID)
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		out.WriteString("Neither run recorded a timeline.\n")
		return out.String()
	}
	firstDiv := -1
	out.WriteString("| win | stage A | stage B | anom A | anom B | breach A | breach B |\n")
	out.WriteString("|--:|:--|:--|--:|--:|--:|--:|\n")
	for i := 0; i < n; i++ {
		var wa, wb *timeline.Window
		if i < len(a) {
			wa = &a[i]
		}
		if i < len(b) {
			wb = &b[i]
		}
		fmt.Fprintf(&out, "| %d | %s | %s | %s | %s | %s | %s |\n", i,
			diffStage(wa), diffStage(wb),
			diffCount(wa, func(w *timeline.Window) int { return len(w.Anomalies) }),
			diffCount(wb, func(w *timeline.Window) int { return len(w.Anomalies) }),
			diffCount(wa, func(w *timeline.Window) int { return len(w.Breaches) }),
			diffCount(wb, func(w *timeline.Window) int { return len(w.Breaches) }))
		if firstDiv < 0 && anomalyKey(wa) != anomalyKey(wb) {
			firstDiv = i
		}
	}
	out.WriteString("\n")
	if firstDiv < 0 {
		out.WriteString("No anomaly divergence: both runs annotate the same series in the same windows.\n")
		return out.String()
	}
	fmt.Fprintf(&out, "**Divergence begins at window %d**", firstDiv)
	var wa, wb *timeline.Window
	if firstDiv < len(a) {
		wa = &a[firstDiv]
	}
	if firstDiv < len(b) {
		wb = &b[firstDiv]
	}
	fmt.Fprintf(&out, ": A annotates [%s], B annotates [%s].\n", anomalyKey(wa), anomalyKey(wb))
	return out.String()
}

func diffStage(w *timeline.Window) string {
	if w == nil {
		return "(ended)"
	}
	if s := strings.Join(w.Stages, "→"); s != "" {
		return s
	}
	if w.Stage != "" {
		return w.Stage
	}
	return "-"
}

func diffCount(w *timeline.Window, f func(*timeline.Window) int) string {
	if w == nil {
		return "-"
	}
	return fmt.Sprintf("%d", f(w))
}

// anomalyKey canonicalizes a window's anomaly set for comparison: sorted
// "series:kind" pairs. A nil window (one run ended) is the empty key.
func anomalyKey(w *timeline.Window) string {
	if w == nil {
		return ""
	}
	keys := make([]string, 0, len(w.Anomalies))
	for _, a := range w.Anomalies {
		keys = append(keys, a.Series+":"+a.Kind)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func timelineBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
