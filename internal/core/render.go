package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/content"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/report"
)

// RenderTable1 prints the URL-format registry (Table 1). It needs no run
// results: the registry is static.
func RenderTable1() string {
	t := report.NewTable("Table 1: Function URL formats and domain regular expressions",
		"Provider", "Launch", "USER-Prefix", "Domain-Suffix", "Path", "Mode", "Regex")
	for _, in := range providers.All() {
		t.AddRow(in.Name, in.LaunchYear, in.URLPrefix, in.DomainSuffix,
			in.PathTemplate, in.Mode.String(), in.Pattern)
	}
	return t.String()
}

// RenderTable2 prints the per-provider usage/resolution rollup (Table 2).
func (r *Results) RenderTable2() string {
	t := report.NewTable(
		fmt.Sprintf("Table 2: usage and resolution results (scale %.3f)", r.Config.Scale),
		"Provider", "Domains", "Requests", "Regions",
		"A%", "A rdata", "A top10",
		"CNAME%", "CN rdata", "CN top10",
		"AAAA%", "A4 rdata", "A4 top10")
	for _, row := range analysis.Table2(r.Aggregate) {
		t.AddRow(row.Provider.String(),
			report.Count(int64(row.Domains)), report.Count(row.Requests), row.Regions,
			report.Pct(row.AShare), row.ARData, report.Pct(row.ATop10),
			report.Pct(row.CNAMEShare), row.CNAMERData, report.Pct(row.CNAMETop10),
			report.Pct(row.AAAAShare), row.AAAARData, report.Pct(row.AAAATop10))
	}
	return t.String()
}

// RenderTable3 prints the abuse rollup (Table 3).
func (r *Results) RenderTable3() string {
	t := report.NewTable(
		fmt.Sprintf("Table 3: abused cloud functions (scale %.3f)", r.Config.Scale),
		"Type", "Case", "Functions", "Requests")
	for _, cs := range r.AbuseReport.ByCase {
		t.AddRow(cs.Case.TypeOf().String(), cs.Case.String(),
			cs.Functions, report.Count(cs.Requests))
	}
	t.AddRow("Total", "", r.AbuseReport.TotalFunctions(), report.Count(r.AbuseReport.TotalRequests()))
	return t.String() + fmt.Sprintf("Abuse rate: %s of %s content-rich functions\n",
		report.Pct(r.AbuseReport.AbuseRate()), report.Count(int64(r.ContentRich)))
}

// RenderFigure3 prints the monthly new-FQDN counts with event annotations.
func (r *Results) RenderFigure3() string {
	s := analysis.NewFQDNsByMonth(r.Aggregate)
	cum := analysis.CumulativeFQDNs(s)
	f := report.NewFigure("Figure 3: monthly newly observed function FQDNs")
	f.Add("new FQDNs", monthlyPoints(s))
	f.Add("cumulative", monthlyPoints(cum))
	annotate(f)
	return f.String()
}

// RenderFigure4 prints per-provider monthly invocation trends (log scale).
func (r *Results) RenderFigure4() string {
	f := report.NewFigure("Figure 4: invocation trends per provider (log bars)")
	f.LogScale = true
	trends := analysis.InvocationTrend(r.Aggregate)
	ids := make([]providers.ID, 0, len(trends))
	for id := range trends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f.Add(id.String(), monthlyPoints(trends[id]))
	}
	annotate(f)
	return f.String()
}

// RenderFigure5 prints the request-count histogram and CDF knots.
func (r *Results) RenderFigure5() string {
	var b strings.Builder
	var pts []report.Point
	for _, bin := range r.Frequency.Histogram {
		pts = append(pts, report.Point{
			Label: fmt.Sprintf("log10 %.2f-%.2f", bin.Lo, bin.Hi),
			Value: float64(bin.Count),
		})
	}
	b.WriteString(report.Histogram("Figure 5: histogram of log10(total request count)", pts, 40))
	fmt.Fprintf(&b, "functions: %d   <5 requests: %s   >100 requests: %s   in 3-6 band: %s\n",
		r.Frequency.Functions,
		report.Pct(r.Frequency.FracUnder5),
		report.Pct(r.Frequency.FracOver100),
		report.Pct(r.Frequency.ModalFrac))
	b.WriteString("CDF knots (log10 requests -> cumulative fraction):\n")
	step := len(r.Frequency.CDF) / 10
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Frequency.CDF); i += step {
		p := r.Frequency.CDF[i]
		fmt.Fprintf(&b, "  %.2f -> %.3f\n", p.Log10Req, p.Frac)
	}
	return b.String()
}

// RenderFigure6 prints the HTTP status-code distribution of the probe sweep.
func (r *Results) RenderFigure6() string {
	counts := map[string]int64{}
	var reachable int64
	for i := range r.ProbeResults {
		res := &r.ProbeResults[i]
		if !res.Reachable {
			counts["unreachable"]++
			continue
		}
		reachable++
		counts[fmt.Sprintf("%d", res.Status)]++
	}
	f := report.NewFigure("Figure 6: distribution of top 10 HTTP status codes")
	f.Add("functions", report.TopN(counts, 10))
	out := f.String()
	out += fmt.Sprintf("probed: %d  reachable: %d (%s)  https: %s\n",
		r.ProbeStats.Probed, r.ProbeStats.Reachable,
		report.Pct(float64(r.ProbeStats.Reachable)/float64(maxI(r.ProbeStats.Probed, 1))),
		report.Pct(float64(r.ProbeStats.HTTPSOnly)/float64(maxI(r.ProbeStats.Reachable, 1))))
	return out
}

// RenderFigure7 prints the OpenAI-key-resale monthly trend.
func (r *Results) RenderFigure7() string {
	byMonth := map[pdns.Date]int64{}
	for fqdn, c := range r.AbuseReport.Assigned {
		if c != abuse.CaseOpenAIResale {
			continue
		}
		fs := r.Aggregate.ByFQDN[fqdn]
		if fs == nil {
			continue
		}
		// Attribute the function's requests to the months it was active,
		// uniformly across its active span.
		span := fs.Lifespan()
		per := fs.TotalRequest / int64(span)
		if per == 0 {
			per = 1
		}
		for d := fs.FirstSeenAll; d <= fs.LastSeenAll; d = d.AddDays(1) {
			byMonth[d.Month()] += per
		}
	}
	f := report.NewFigure("Figure 7: misuse trend — resale of OpenAI API keys")
	var pts []report.Point
	for _, m := range sortedMonths(byMonth) {
		pts = append(pts, report.Point{Label: m.String()[:7], Value: float64(byMonth[m])})
	}
	f.Add("requests", pts)
	f.Annotate("2022-11", "ChatGPT released Nov 30, 2022")
	return f.String()
}

// RenderSummary prints the headline findings of the run.
func (r *Results) RenderSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Pipeline summary (seed %d, scale %.3f) ==\n", r.Config.Seed, r.Config.Scale)
	fmt.Fprintf(&b, "function domains identified: %s\n", report.Count(int64(r.Aggregate.TotalDomains())))
	fmt.Fprintf(&b, "total invocations (PDNS requests): %s\n", report.Count(r.Aggregate.TotalRequests()))
	fmt.Fprintf(&b, "probed: %d  unreachable: %s  dns-failures: %d\n",
		r.ProbeStats.Probed,
		report.Pct(float64(r.ProbeStats.Unreachable)/float64(maxI(r.ProbeStats.Probed, 1))),
		r.ProbeStats.DNSFailures)
	fmt.Fprintf(&b, "content-rich responses: %d  clusters: %d\n", r.ContentRich, r.TotalClusters)
	fmt.Fprintf(&b, "content types: JSON %d  HTML %d  Plaintext %d  Others %d\n",
		r.TypeCounts[content.JSON], r.TypeCounts[content.HTML],
		r.TypeCounts[content.Plaintext], r.TypeCounts[content.Other])
	fmt.Fprintf(&b, "sensitive findings: %d (tokens %d, keys %d, passwords %d, phones %d, ids %d, network %d)\n",
		r.SecretsCensus.Total(),
		r.SecretsCensus[2], r.SecretsCensus[3], r.SecretsCensus[4],
		r.SecretsCensus[0], r.SecretsCensus[1], r.SecretsCensus[5])
	fmt.Fprintf(&b, "abused functions: %d (%s), requests %s\n",
		r.AbuseReport.TotalFunctions(), report.Pct(r.AbuseReport.AbuseRate()),
		report.Count(r.AbuseReport.TotalRequests()))
	fmt.Fprintf(&b, "C2 detections: %d functions\n", len(dedupHosts(r)))
	fmt.Fprintf(&b, "threat-intel coverage: %d/%d flagged (%s)\n",
		r.TICoverage.Flagged, r.TICoverage.Total, report.Pct(r.TICoverage.Rate()))
	fmt.Fprintf(&b, "lifespan: single-day %s, mean %.1f days, density-1 %s\n",
		report.Pct(r.Lifespan.FracSingleDay), r.Lifespan.MeanDays,
		report.Pct(r.Lifespan.FracDensityOne))
	fmt.Fprintf(&b, "elapsed: %v\n", r.Elapsed)
	return b.String()
}

// RenderStageTimings prints the per-stage wall/CPU breakdown of the run.
func (r *Results) RenderStageTimings() string {
	return report.StageTimings(obs.FlattenStages(r.Stages))
}

// RenderMetrics prints the highlights of the run's metric snapshot.
func (r *Results) RenderMetrics() string {
	return report.MetricsSummary(r.Metrics.Snapshot())
}

// RenderDegradations prints what the run absorbed instead of aborting on —
// one row per (stage, failure kind). Empty string for a clean run, so
// callers can print it unconditionally.
func (r *Results) RenderDegradations() string {
	if len(r.Degradations) == 0 {
		return ""
	}
	t := report.NewTable(
		fmt.Sprintf("Degradations absorbed (chaos profile %s)", r.Config.Chaos.String()),
		"Stage", "Kind", "Count")
	for _, d := range r.Degradations {
		t.AddRow(d.Stage, d.Kind, report.Count(d.Count))
	}
	return t.String()
}

// RenderHealth renders the final SLO evaluation: one row per (rule, group),
// the groups being providers or shards depending on the rule. Rules whose
// metrics never materialised (e.g. breaker counters on a chaos-free run)
// have no rows.
func (r *Results) RenderHealth() string {
	if len(r.Health) == 0 {
		return ""
	}
	t := report.NewTable("SLO health (per provider)", "Rule", "Group", "Value", "Bound", "Samples", "Window", "Status")
	for _, h := range r.Health {
		group := h.Group
		if group == "" {
			group = "-"
		}
		status := "ok"
		if h.Fired {
			status = "FIRED"
		}
		t.AddRow(h.Rule, group,
			fmt.Sprintf("%.4g", h.Value), fmt.Sprintf("%.4g", h.Max),
			report.Count(h.Samples), h.Window, status)
	}
	return t.String()
}

// RenderResources renders the per-stage runtime high-water marks the
// resource sampler collected. Empty string when sampling was disabled
// (Config.SampleInterval zero), so callers can print it unconditionally.
func (r *Results) RenderResources() string {
	if len(r.Resources) == 0 {
		return ""
	}
	t := report.NewTable("Runtime resources (per stage)",
		"Stage", "Samples", "Peak heap", "Peak RSS", "Goroutines", "Alloc", "GCs", "GC pause p99")
	for _, rs := range r.Resources {
		t.AddRow(rs.Stage, rs.Samples,
			fmtMiB(rs.MaxHeapInuseBytes), fmtMiB(rs.MaxRSSBytes),
			rs.MaxGoroutines, fmtMiB(rs.AllocBytes), rs.GCCount,
			fmtPause(rs.GCPauseP99NS))
	}
	return t.String()
}

// fmtMiB renders a byte count in MiB with one decimal; "-" for zero (the
// RSS column on platforms without a reader, stages with no allocation).
func fmtMiB(n int64) string {
	if n <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}

func fmtPause(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func dedupHosts(r *Results) map[string]struct{} {
	m := map[string]struct{}{}
	for _, d := range r.C2Detections {
		m[d.Host] = struct{}{}
	}
	return m
}

func monthlyPoints(s analysis.MonthlySeries) []report.Point {
	out := make([]report.Point, len(s))
	for i, p := range s {
		out[i] = report.Point{Label: p.Month.String()[:7], Value: float64(p.Value)}
	}
	return out
}

func annotate(f *report.Figure) {
	for _, ev := range analysis.Events() {
		f.Annotate(ev.Month.String()[:7], ev.Label)
	}
}

func sortedMonths(m map[pdns.Date]int64) []pdns.Date {
	out := make([]pdns.Date, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderDisclosures prints the responsible-disclosure summary: one package
// per affected provider with its status (§5.5).
func (r *Results) RenderDisclosures() string {
	var b strings.Builder
	b.WriteString("Responsible disclosure (§5.5):\n")
	if len(r.Disclosures) == 0 {
		b.WriteString("  no abuse to report\n")
		return b.String()
	}
	for _, d := range r.Disclosures {
		fmt.Fprintf(&b, "  %-8s %3d functions reported, status %s\n",
			d.Provider.String(), len(d.Items), d.Status)
	}
	return b.String()
}
