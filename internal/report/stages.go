package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// StageTimings renders stage rows (the obs.FlattenStages form a run's
// timings.json stores) as an aligned stage-timing table: one row per span,
// children indented by the depth of their slash-joined path, with wall
// time, process-CPU time (stages only: nested spans record none and show
// "-"), the share of total root wall time, and any recorded attributes or
// errors. scfpipe prints it for a live run and `scfruns show` for an
// archived one, so the two read alike.
func StageTimings(stages []obs.StageTiming) string {
	t := NewTable("Stage timings", "Stage", "Wall", "CPU", "Share", "Notes")
	var total time.Duration
	for _, s := range stages {
		if !strings.Contains(s.Path, "/") {
			total += time.Duration(s.WallNS)
		}
	}
	for _, s := range stages {
		depth := strings.Count(s.Path, "/")
		name := s.Path[strings.LastIndex(s.Path, "/")+1:]
		share := ""
		if depth == 0 && total > 0 {
			share = Pct(float64(s.WallNS) / float64(total))
		}
		t.AddRow(strings.Repeat("  ", depth)+name,
			fmtDur(time.Duration(s.WallNS)), fmtDur(time.Duration(s.CPUNS)), share, stageNotes(s))
	}
	t.AddRow("total", fmtDur(total), "", "", "")
	return t.String()
}

// stageNotes flattens a stage row's attributes (and error, if any) to one cell.
func stageNotes(s obs.StageTiming) string {
	parts := make([]string, 0, len(s.Attrs)+1)
	for _, a := range s.Attrs {
		parts = append(parts, a.Key+"="+a.Value)
	}
	if s.Err != "" {
		parts = append(parts, "ERR: "+s.Err)
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
// start counts. Full detail lives in the archived timings.json and the
// /metrics endpoint.
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
