package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// StageTimings renders a run's span tree as an aligned stage-timing table:
// one row per span, children indented, with wall time, process-CPU time
// (stages only: nested spans record none and show "-"), the share of total
// root wall time, and any recorded attributes or errors. This
// is the human-readable face of the RunManifest.
func StageTimings(recs []obs.SpanRecord) string {
	t := NewTable("Stage timings", "Stage", "Wall", "CPU", "Share", "Notes")
	var total time.Duration
	for _, r := range recs {
		total += time.Duration(r.WallNS)
	}
	var add func(r obs.SpanRecord, depth int)
	add = func(r obs.SpanRecord, depth int) {
		wall := time.Duration(r.WallNS)
		share := ""
		if depth == 0 && total > 0 {
			share = Pct(float64(wall) / float64(total))
		}
		t.AddRow(strings.Repeat("  ", depth)+r.Name,
			fmtDur(wall), fmtDur(time.Duration(r.CPUNS)), share, stageNotes(r))
		for _, c := range r.Children {
			add(c, depth+1)
		}
	}
	for _, r := range recs {
		add(r, 0)
	}
	t.AddRow("total", fmtDur(total), "", "", "")
	return t.String()
}

// StageTimingsFlat renders archived stage rows (the obs.FlattenStages form
// stored in a run's timings.json) with the same table shape StageTimings
// produces from a live span tree: depth recovered from the slash-joined
// path, root-stage share of total wall time, errors in the notes column.
// `scfruns show` prints this, so the archive and the live run read alike.
func StageTimingsFlat(stages []obs.StageTiming) string {
	t := NewTable("Stage timings", "Stage", "Wall", "CPU", "Share", "Notes")
	var total time.Duration
	for _, s := range stages {
		if !strings.Contains(s.Path, "/") {
			total += time.Duration(s.WallNS)
		}
	}
	for _, s := range stages {
		depth := strings.Count(s.Path, "/")
		name := s.Path
		if i := strings.LastIndex(s.Path, "/"); i >= 0 {
			name = s.Path[i+1:]
		}
		share := ""
		if depth == 0 && total > 0 {
			share = Pct(float64(s.WallNS) / float64(total))
		}
		notes := ""
		if s.Err != "" {
			notes = "ERR: " + s.Err
		}
		t.AddRow(strings.Repeat("  ", depth)+name,
			fmtDur(time.Duration(s.WallNS)), fmtDur(time.Duration(s.CPUNS)), share, notes)
	}
	t.AddRow("total", fmtDur(total), "", "", "")
	return t.String()
}

// stageNotes flattens a span's attributes (and error, if any) to one cell.
func stageNotes(r obs.SpanRecord) string {
	parts := make([]string, 0, len(r.Attrs)+1)
	for _, a := range r.Attrs {
		parts = append(parts, a.Key+"="+a.Value)
	}
	if r.Err != "" {
		parts = append(parts, "ERR: "+r.Err)
	}
	return strings.Join(parts, " ")
}

// fmtDur prints a duration rounded to a readable precision. "µs" becomes
// "us" so the table's byte-width alignment holds.
func fmtDur(d time.Duration) string {
	var s string
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		s = d.Round(time.Microsecond).String()
	case d < time.Second:
		s = d.Round(10 * time.Microsecond).String()
	default:
		s = d.Round(time.Millisecond).String()
	}
	return strings.ReplaceAll(s, "µs", "us")
}

// MetricsSummary renders the highlights of a metrics snapshot: request
// latency quantiles from the probe histogram, cache hit rates, and cold/warm
// start counts. Full detail lives in the manifest and the /metrics endpoint.
func MetricsSummary(s obs.Snapshot) string {
	var b strings.Builder
	b.WriteString("Run metrics\n")
	if h, ok := s.Histograms["probe_request_seconds"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "  probe requests: %d  p50=%s p90=%s p99=%s mean=%s\n",
			h.Count, fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.9)),
			fmtSeconds(h.Quantile(0.99)), fmtSeconds(h.Mean()))
	}
	if hits, misses := s.Counters["dnssim_lookup_cache_hits_total"], s.Counters["dnssim_lookup_cache_misses_total"]; hits+misses > 0 {
		fmt.Fprintf(&b, "  resolver lookup cache: %d hits / %d misses (%s hit rate)\n",
			hits, misses, Pct(float64(hits)/float64(hits+misses)))
	}
	if cold, warm := s.Counters["faas_cold_starts_total"], s.Counters["faas_warm_starts_total"]; cold+warm > 0 {
		fmt.Fprintf(&b, "  faas starts: %d cold / %d warm\n", cold, warm)
	}
	if n := s.Counters["pdns_records_scanned_total"]; n > 0 {
		fmt.Fprintf(&b, "  pdns records scanned: %s (%s matched, %s dropped)\n",
			Count(n), Count(s.Counters["pdns_records_matched_total"]),
			Count(s.Counters["pdns_records_dropped_total"]))
	}
	if n := s.Counters["c2_probes_total"]; n > 0 {
		fmt.Fprintf(&b, "  c2 sweep: %s fingerprint probes over %s hosts, %d detections\n",
			Count(n), Count(s.Counters["c2_hosts_scanned_total"]),
			s.Counters["c2_detections_total"])
	}
	return b.String()
}

func fmtSeconds(s float64) string {
	return fmtDur(time.Duration(s * float64(time.Second)))
}
