package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/content"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/runs"
	"repro/internal/secrets"
)

// RenderExperiments produces the paper-vs-measured record for every table
// and figure (the content of EXPERIMENTS.md), as markdown. "Shape holds"
// means the reproduced value matches the paper within the stated tolerance
// or preserves the paper's ordering — absolute counts scale with
// Config.Scale by design.
func (r *Results) RenderExperiments() string {
	var b strings.Builder
	scale := r.Config.Scale
	fmt.Fprintf(&b, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&b, "Pipeline run: seed %d, scale %.3f (paper population × scale), C2 sweep %v.\n",
		r.Config.Seed, scale, !r.Config.SkipC2Scan)
	fmt.Fprintf(&b, "All absolute paper counts are compared after multiplying by the scale;\n")
	fmt.Fprintf(&b, "proportions and orderings are compared directly. Elapsed: %v.\n\n", r.Elapsed)
	fmt.Fprintf(&b, "Every number below is a pure function of (seed, scale): the pipeline's\n")
	fmt.Fprintf(&b, "worker count (`-workers`) changes only wall-clock time, never a measurement.\n")
	fmt.Fprintf(&b, "Per-function and per-provider RNG streams make the parallel run bit-identical\n")
	fmt.Fprintf(&b, "to the serial one, so reruns reproduce this file at any `-workers` setting\n")
	fmt.Fprintf(&b, "(`internal/workload/parallel_test.go` enforces this).\n\n")

	row := func(metric, paper, measured string, holds bool) {
		mark := "yes"
		if !holds {
			mark = "**NO**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", metric, paper, measured, mark)
	}
	header := func(title string) {
		fmt.Fprintf(&b, "## %s\n\n| metric | paper | measured | shape holds |\n|---|---|---|---|\n", title)
	}
	// band renders a row for one of the calibration shares: the share the
	// run archives, held against the runs.PaperTargets band the gate audits,
	// so a "**NO**" here and a gate calibration failure mean the same thing.
	cal := r.Calibration()
	band := func(metric, paper, name string) {
		t, _ := runs.TargetFor(name)
		row(metric, paper, pct(cal[name]), t.Contains(cal[name]))
	}

	// ---- Table 1 ----
	header("Table 1 — URL formats")
	okT1 := len(providers.All()) == 10
	row("registered URL formats", "10 (9 providers, Google ×2)", fmt.Sprint(len(providers.All())), okT1)
	row("excluded from collection", "Azure (shared suffix)", fmt.Sprint(9-len(providers.Collected())+1)+" (Azure)", len(providers.Collected()) == 9)
	row("excluded from active probing", "Google, IBM, Oracle, Azure", fmt.Sprint(10-len(providers.Probeable())), len(providers.Probeable()) == 6)
	b.WriteString("\n")

	// ---- Table 2 ----
	header("Table 2 — per-provider usage and resolution")
	rows := analysis.Table2(r.Aggregate)
	domTotal, reqTotal := 0, int64(0)
	for _, t2 := range rows {
		domTotal += t2.Domains
		reqTotal += t2.Requests
	}
	wantDom := int(531_083 * scale)
	row("total function domains", fmt.Sprintf("531,083×%.3f = %d", scale, wantDom),
		fmt.Sprint(domTotal), within(float64(domTotal), float64(wantDom), 0.10))
	wantReq := 1.552e9 * scale
	row("total requests", fmt.Sprintf("1.552B×%.3f = %.0f", scale, wantReq),
		fmt.Sprint(reqTotal), within(float64(reqTotal), wantReq, 0.15))

	domOrder := rankProviders(rows, func(t analysis.Table2Row) float64 { return float64(t.Domains) })
	row("domain-count ranking", "Google2 > Google > Aliyun > AWS > Tencent",
		strings.Join(domOrder[:5], " > "), strings.Join(domOrder[:5], " > ") == "Google2 > Google > Aliyun > AWS > Tencent")
	reqOrder := rankProviders(rows, func(t analysis.Table2Row) float64 { return float64(t.Requests) })
	row("request-count ranking", "Google > Aliyun > AWS > Google2",
		strings.Join(reqOrder[:4], " > "), strings.Join(reqOrder[:4], " > ") == "Google > Aliyun > AWS > Google2")

	paperShares := map[providers.ID][3]float64{ // A, CNAME, AAAA
		providers.Aliyun:   {0.2796, 0.7204, 0},
		providers.Baidu:    {0.2247, 0.7753, 0},
		providers.Tencent:  {0.2389, 0.7611, 0},
		providers.Kingsoft: {1, 0, 0},
		providers.AWS:      {0.7673, 0, 0.2327},
		providers.Google:   {0.7641, 0, 0.2359},
		providers.Google2:  {0.6675, 0, 0.3325},
		providers.IBM:      {0.1015, 0.8755, 0.0230},
		providers.Oracle:   {1, 0, 0},
	}
	for _, t2 := range rows {
		want := paperShares[t2.Provider]
		ok := absDiff(t2.AShare, want[0]) < 0.03 && absDiff(t2.CNAMEShare, want[1]) < 0.03 && absDiff(t2.AAAAShare, want[2]) < 0.03
		row(fmt.Sprintf("%s rtype mix (A/CNAME/AAAA)", t2.Provider),
			fmt.Sprintf("%.1f%%/%.1f%%/%.1f%%", want[0]*100, want[1]*100, want[2]*100),
			fmt.Sprintf("%.1f%%/%.1f%%/%.1f%%", t2.AShare*100, t2.CNAMEShare*100, t2.AAAAShare*100), ok)
	}
	awsRow := findRow(rows, providers.AWS)
	aliRow := findRow(rows, providers.Aliyun)
	if awsRow != nil && aliRow != nil {
		row("AWS ingress dispersion (Top10 share)", "1.79% (thousands of nodes)",
			fmt.Sprintf("%.1f%% over %d nodes", awsRow.ATop10*100, awsRow.ARData),
			awsRow.ATop10 < 0.5 && awsRow.ARData > 50)
		row("concentrated providers (Aliyun A Top10)", "93.57%",
			fmt.Sprintf("%.1f%%", aliRow.ATop10*100), aliRow.ATop10 > 0.8)
	}
	b.WriteString("\n")

	// ---- Figure 3 ----
	header("Figure 3 — adoption trend")
	monthly := analysis.NewFQDNsByMonth(r.Aggregate)
	apr22 := monthly[0].Value
	var mean12 float64
	for _, p := range monthly[1:13] {
		mean12 += float64(p.Value)
	}
	mean12 /= 12
	row("AWS function-URL launch spike (Apr 2022)", "sharp increase in new FQDNs",
		fmt.Sprintf("Apr-22 = %d vs later-year mean %.0f", apr22, mean12), float64(apr22) > mean12*1.05)
	lastQ := float64(monthly[21].Value+monthly[22].Value+monthly[23].Value) / 3
	firstQ := float64(monthly[0].Value+monthly[1].Value+monthly[2].Value) / 3
	row("overall growth trend", "growing adoption",
		fmt.Sprintf("first-quarter mean %.0f -> last-quarter mean %.0f", firstQ, lastQ), lastQ > firstQ)
	b.WriteString("\n")

	// ---- Figure 4 ----
	header("Figure 4 — invocation trends with provider events")
	trends := analysis.InvocationTrend(r.Aggregate)
	ksStart := firstNonZeroMonth(trends[providers.Kingsoft])
	row("Kingsoft appears Aug 2022", "first resolutions Aug 2022",
		ksStart, ksStart == "2022-08" || ksStart == "2022-09")
	tcStart := firstNonZeroMonth(trends[providers.Tencent])
	row("Tencent appears Aug 2023", "first resolutions Aug 2023",
		tcStart, tcStart == "2023-08" || tcStart == "2023-09")
	tcSeries := trends[providers.Tencent]
	tcDec, tcFeb := monthValue(tcSeries, "2023-12"), monthValue(tcSeries, "2024-02")
	row("Tencent decline after free-quota change (Jan 2024)", "sharp decline",
		fmt.Sprintf("Dec-23 = %d -> Feb-24 = %d", tcDec, tcFeb), tcFeb < tcDec)
	b.WriteString("\n")

	// ---- Figure 5 ----
	header("Figure 5 — per-function invocation distribution")
	band("functions invoked <5 times", "78.14%", "frac_under5")
	band("functions invoked >100 times", "7.87%", "frac_over100")
	row("mode of histogram (requests)", "3–6 requests",
		fmt.Sprintf("%.1f–%.1f requests", r.Frequency.ModalLow, r.Frequency.ModalHigh),
		r.Frequency.ModalLow >= 1 && r.Frequency.ModalHigh <= 10)
	b.WriteString("\n")

	// ---- §4.3 lifespans ----
	header("§4.3 — lifespan and activity density")
	band("single-day lifespan", "81.30%", "single_day_lifespan")
	row("lifespan under 5 days", "83.94%", pct(r.Lifespan.FracUnder5Days), absDiff(r.Lifespan.FracUnder5Days, 0.8394) < 0.03)
	row("mean lifespan (days)", "21.44", fmt.Sprintf("%.2f", r.Lifespan.MeanDays), absDiff(r.Lifespan.MeanDays, 21.44) < 7)
	band("activity density p=1", "83.01%", "density_one_share")
	b.WriteString("\n")

	// ---- Figure 6 / §4.4 ----
	header("Figure 6 / §4.4 — active probing")
	band("unreachable functions", "2.03%", "unreachable_share")
	band("DNS failures among unreachable (deleted Tencent)", "19.12%", "dns_failure_share")
	band("reachable functions answering HTTPS", "99.82%", "https_share")
	band("HTTP 404 share", "89.31%", "http_404_share")
	band("HTTP 200 share", "3.14%", "http_200_share")
	codes := r.statusShares()
	row("server errors (5xx)", "2.82% (AWS most)", pct(codes[502]+codes[500]+codes[503]+codes[504]),
		absDiff(codes[502]+codes[500]+codes[503]+codes[504], 0.0282) < 0.03)
	row("HTTP 401 share", "0.13%", pct(codes[401]), codes[401] < 0.01)
	b.WriteString("\n")

	// ---- §3.4 content analysis ----
	header("§3.4 — content typing and clustering")
	rich := float64(maxI(r.ContentRich, 1))
	row("content-rich responses (non-empty 200s)", fmt.Sprintf("12,138×%.3f = %.0f", scale, 12_138*scale),
		fmt.Sprint(r.ContentRich), within(rich, 12_138*scale, 0.35))
	ctJSON := float64(r.TypeCounts[content.JSON]) / rich
	ctHTML := float64(r.TypeCounts[content.HTML]) / rich
	ctText := float64(r.TypeCounts[content.Plaintext]) / rich
	row("JSON share", "36.98%", pct(ctJSON), absDiff(ctJSON, 0.3698) < 0.08)
	row("HTML share", "31.54%", pct(ctHTML), absDiff(ctHTML, 0.3154) < 0.08)
	row("Plaintext share", "30.34%", pct(ctText), absDiff(ctText, 0.3034) < 0.08)
	row("clusters", fmt.Sprintf("4,512×%.3f ≈ %.0f", scale, 4_512*scale),
		fmt.Sprint(r.TotalClusters), r.TotalClusters > 0 && float64(r.TotalClusters) < rich)
	b.WriteString("\n")

	// ---- §5 secrets ----
	header("§5 — sensitive-data census")
	wantSecrets := 394 * scale
	row("total findings", fmt.Sprintf("394×%.3f ≈ %.0f", scale, wantSecrets),
		fmt.Sprint(r.SecretsCensus.Total()), within(float64(r.SecretsCensus.Total()), wantSecrets, 0.5))
	keys, netid, tokens := r.SecretsCensus[secrets.APIKey], r.SecretsCensus[secrets.NetworkID], r.SecretsCensus[secrets.AccessToken]
	row("category ordering", "API keys (156) > network IDs (127) > tokens (82)",
		fmt.Sprintf("keys %d, network %d, tokens %d", keys, netid, tokens),
		keys >= netid && netid >= tokens)
	row("tokens+keys dominate", "60.4% of findings",
		pct(float64(tokens+keys)/float64(maxI(r.SecretsCensus.Total(), 1))),
		float64(tokens+keys)/float64(maxI(r.SecretsCensus.Total(), 1)) > 0.4)
	b.WriteString("\n")

	// ---- Table 3 ----
	header("Table 3 — abuse cases")
	paperT3 := map[abuse.Case][2]float64{ // functions, requests
		abuse.CaseC2:           {16, 273_291},
		abuse.CaseGambling:     {194, 24_979},
		abuse.CasePorn:         {8, 854},
		abuse.CaseCheating:     {4, 11_941},
		abuse.CaseRedirect:     {23, 16_771},
		abuse.CaseOpenAIResale: {243, 106_315},
		abuse.CaseIllegalProxy: {20, 170_195},
		abuse.CaseGeoProxy:     {86, 10_873},
	}
	for _, cs := range r.AbuseReport.ByCase {
		want := paperT3[cs.Case]
		wantFns := scaleFloor(want[0], scale)
		ok := within(float64(cs.Functions), wantFns, 0.5) || absDiff(float64(cs.Functions), wantFns) <= 2
		row(cs.Case.String(),
			fmt.Sprintf("%.0f fns / %s req (×%.3f: %.0f fns)", want[0], comma(int64(want[1])), scale, wantFns),
			fmt.Sprintf("%d fns / %s req", cs.Functions, comma(cs.Requests)), ok)
	}
	row("total abused functions", fmt.Sprintf("594×%.3f ≈ %.0f", scale, 594*scale),
		fmt.Sprint(r.AbuseReport.TotalFunctions()),
		within(float64(r.AbuseReport.TotalFunctions()), 594*scale, 0.4))
	band("abuse rate", "4.89% of content-rich", "abuse_rate")
	row("total abuse requests", fmt.Sprintf("614,219×%.3f ≈ %.0f", scale, 614_219*scale),
		comma(r.AbuseReport.TotalRequests()),
		within(float64(r.AbuseReport.TotalRequests()), 614_219*scale, 0.5))
	if len(r.ResaleGroups) > 0 {
		top := r.ResaleGroups[0]
		resaleTotal := r.AbuseReport.ByCase[abuse.CaseOpenAIResale].Functions
		row("largest resale group share", "157/243 = 64.6% behind one WeChat",
			fmt.Sprintf("%d/%d behind %s", len(top.Functions), resaleTotal, top.Contact),
			resaleTotal > 0 && float64(len(top.Functions))/float64(resaleTotal) > 0.4)
	}
	b.WriteString("\n")

	// ---- §5.1 C2 + §5.5 TI ----
	header("§5.1 / §5.5 — C2 detection and the defence gap")
	if r.Config.SkipC2Scan {
		row("C2 fingerprint sweep", "16 relays, Cobalt Strike + InfoStealer", "skipped in this run", true)
	} else {
		hosts := dedupHosts(r)
		fams := map[string]bool{}
		for _, d := range r.C2Detections {
			fams[d.Family] = true
		}
		wantC2 := scaleFloor(16, scale)
		row("C2 relays detected", fmt.Sprintf("16×%.3f ≈ %.0f", scale, wantC2),
			fmt.Sprint(len(hosts)), within(float64(len(hosts)), wantC2, 0.6) || absDiff(float64(len(hosts)), wantC2) <= 2)
		row("families observed", "Cobalt Strike-like, InfoStealer-like",
			fmt.Sprint(sortedKeys(fams)), fams["coboltstrike-like"])
		row("TI flagged abused functions", "4 of 594 (0.67%)",
			fmt.Sprintf("%d of %d (%s)", r.TICoverage.Flagged, r.TICoverage.Total, pct(r.TICoverage.Rate())),
			r.TICoverage.Flagged <= 4 && r.TICoverage.Rate() < 0.2)
	}
	b.WriteString("\n")

	// ---- Figure 7 ----
	header("Figure 7 — OpenAI key-resale trend")
	resaleMonths := r.resaleActivityMonths()
	first, last := "", ""
	if len(resaleMonths) > 0 {
		first, last = resaleMonths[0], resaleMonths[len(resaleMonths)-1]
	}
	row("campaign start", "Jan 2023 (2 months after ChatGPT)", first,
		first == "2023-01" || first == "2023-02")
	row("campaign cools down", "after May 2023", last,
		last != "" && last <= "2023-07")
	b.WriteString("\n")

	b.WriteString("---\n\nRegenerate with `go run ./cmd/scfexperiments -scale " +
		fmt.Sprintf("%.2f", scale) + "`. Absolute counts scale with the population\n" +
		"fraction; proportions, orderings and crossover months are scale-invariant.\n")
	return b.String()
}

// statusShares computes the per-code share of reachable probe results.
func (r *Results) statusShares() map[int]float64 {
	counts := map[int]int{}
	reachable := 0
	for i := range r.ProbeResults {
		if r.ProbeResults[i].Reachable {
			reachable++
			counts[r.ProbeResults[i].Status]++
		}
	}
	out := map[int]float64{}
	for code, n := range counts {
		out[code] = float64(n) / float64(maxI(reachable, 1))
	}
	return out
}

// resaleActivityMonths lists the months with resale-cohort activity.
func (r *Results) resaleActivityMonths() []string {
	months := map[pdns.Date]bool{}
	for fqdn, c := range r.AbuseReport.Assigned {
		if c != abuse.CaseOpenAIResale {
			continue
		}
		if fs := r.Aggregate.ByFQDN[fqdn]; fs != nil {
			months[fs.FirstSeenAll.Month()] = true
			months[fs.LastSeenAll.Month()] = true
		}
	}
	var out []string
	for m := range months {
		out = append(out, m.String()[:7])
	}
	sort.Strings(out)
	return out
}

func rankProviders(rows []analysis.Table2Row, key func(analysis.Table2Row) float64) []string {
	sorted := append([]analysis.Table2Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	out := make([]string, len(sorted))
	for i, t := range sorted {
		out[i] = t.Provider.String()
	}
	return out
}

func findRow(rows []analysis.Table2Row, id providers.ID) *analysis.Table2Row {
	for i := range rows {
		if rows[i].Provider == id {
			return &rows[i]
		}
	}
	return nil
}

func firstNonZeroMonth(s analysis.MonthlySeries) string {
	for _, p := range s {
		if p.Value > 0 {
			return p.Month.String()[:7]
		}
	}
	return "never"
}

func monthValue(s analysis.MonthlySeries, month string) int64 {
	for _, p := range s {
		if p.Month.String()[:7] == month {
			return p.Value
		}
	}
	return 0
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := (got - want) / want
	return d > -tol && d < tol
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// scaleFloor scales a paper count with the generator's min-1 floor.
func scaleFloor(n, scale float64) float64 {
	s := n * scale
	if s < 1 {
		return 1
	}
	return s
}

func comma(n int64) string {
	s := fmt.Sprint(n)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
