// Package analysis computes the usage statistics of paper §4 from an
// aggregated PDNS dataset and a probing campaign: the adoption trends of
// Figure 3, the per-provider invocation trends of Figure 4, the invocation
// CDF/histogram of Figure 5, the lifespan and activity-density statistics of
// §4.3, the Table 2 resolution rollup, and the HTTP status distribution of
// Figure 6.
package analysis

import (
	"math"
	"sort"

	"repro/internal/pdns"
	"repro/internal/providers"
)

// MonthlyPoint is one month of a trend series.
type MonthlyPoint struct {
	Month pdns.Date // first day of month
	Value int64
}

// MonthlySeries is a dense, chronologically sorted series.
type MonthlySeries []MonthlyPoint

// NewFQDNsByMonth rolls the daily first-seen counts of the aggregate up to
// monthly totals (Figure 3: “newly observed FQDNs”, monthly cumulative of
// daily additions).
func NewFQDNsByMonth(ag *pdns.Aggregate) MonthlySeries {
	byMonth := map[pdns.Date]int64{}
	for day, n := range ag.NewPerDay {
		byMonth[day.Month()] += int64(n)
	}
	return denseSeries(byMonth, ag.Window)
}

// CumulativeFQDNs integrates the monthly new-FQDN series.
func CumulativeFQDNs(s MonthlySeries) MonthlySeries {
	out := make(MonthlySeries, len(s))
	var acc int64
	for i, p := range s {
		acc += p.Value
		out[i] = MonthlyPoint{Month: p.Month, Value: acc}
	}
	return out
}

// InvocationTrend returns each provider's monthly request series (Figure 4).
func InvocationTrend(ag *pdns.Aggregate) map[providers.ID]MonthlySeries {
	out := make(map[providers.ID]MonthlySeries, len(ag.MonthlyReq))
	for id, m := range ag.MonthlyReq {
		out[id] = denseSeries(m, ag.Window)
	}
	return out
}

func denseSeries(byMonth map[pdns.Date]int64, w pdns.Window) MonthlySeries {
	var out MonthlySeries
	for m := w.Start.Month(); m <= w.End; {
		out = append(out, MonthlyPoint{Month: m, Value: byMonth[m]})
		t := m.Time().AddDate(0, 1, 0)
		m = pdns.DateOf(t)
	}
	return out
}

// Event is an annotation on the trend figures (provider launches, policy
// changes). The markers reproduce the callouts of Figures 3, 4 and 7.
type Event struct {
	Month pdns.Date
	Label string
}

// Events returns the paper's annotated event calendar.
func Events() []Event {
	return []Event{
		{pdns.NewDate(2022, 4, 1), "Release of AWS Function URL"},
		{pdns.NewDate(2022, 4, 1), "Release of Google2 (Feb 2022)"},
		{pdns.NewDate(2022, 8, 1), "Release of Kingsoft Function URL"},
		{pdns.NewDate(2022, 11, 1), "ChatGPT released Nov 30, 2022"},
		{pdns.NewDate(2023, 8, 1), "Release of Tencent Function URL"},
		{pdns.NewDate(2023, 8, 1), "Google2 becomes default option"},
		{pdns.NewDate(2024, 1, 1), "Tencent changes free-trial quota"},
	}
}

// FrequencyStats summarises the per-function invocation distribution
// (Figure 5 and §4.3).
type FrequencyStats struct {
	Functions   int
	FracUnder5  float64 // invoked fewer than 5 times
	FracOver100 float64 // invoked more than 100 times
	// Histogram buckets log10(total requests) into tenth-of-a-decade bins.
	Histogram []HistBin
	// CDF holds (log10(requests), cumulative fraction) knots.
	CDF []CDFPoint
	// ModalLow/ModalHigh bound the densest histogram bin in request counts.
	ModalLow, ModalHigh float64
	// ModalFrac is the fraction of total requests... of functions within
	// the paper's reported concentration band [3.35, 6.13].
	ModalFrac float64
}

// HistBin is one log10 histogram bucket.
type HistBin struct {
	Lo, Hi float64 // log10 bounds
	Count  int
}

// CDFPoint is one knot of the empirical CDF.
type CDFPoint struct {
	Log10Req float64
	Frac     float64
}

// Frequency computes Figure 5 over the per-function stats (Google, IBM and
// Oracle excluded upstream by PerFunctionStats).
func Frequency(fns []*pdns.FQDNStats) FrequencyStats {
	out := FrequencyStats{Functions: len(fns)}
	if len(fns) == 0 {
		return out
	}
	logs := make([]float64, 0, len(fns))
	var under5, over100, inBand int
	for _, f := range fns {
		if f.TotalRequest < 5 {
			under5++
		}
		if f.TotalRequest > 100 {
			over100++
		}
		if f.TotalRequest >= 3 && f.TotalRequest <= 6 {
			inBand++
		}
		logs = append(logs, math.Log10(float64(f.TotalRequest)))
	}
	sort.Float64s(logs)
	out.FracUnder5 = float64(under5) / float64(len(fns))
	out.FracOver100 = float64(over100) / float64(len(fns))
	out.ModalFrac = float64(inBand) / float64(len(fns))

	// Histogram at 0.175-decade bins (the paper's band 3.35–6.13 requests
	// spans log10 0.525–0.7875, i.e. 1.5 bins at this width).
	const binW = 0.175
	maxLog := logs[len(logs)-1]
	nBins := int(maxLog/binW) + 1
	bins := make([]HistBin, nBins)
	for i := range bins {
		bins[i] = HistBin{Lo: float64(i) * binW, Hi: float64(i+1) * binW}
	}
	for _, l := range logs {
		i := int(l / binW)
		if i >= nBins {
			i = nBins - 1
		}
		bins[i].Count++
	}
	out.Histogram = bins
	best := 0
	for i, b := range bins {
		if b.Count > bins[best].Count {
			best = i
		}
		_ = i
	}
	out.ModalLow = math.Pow(10, bins[best].Lo)
	out.ModalHigh = math.Pow(10, bins[best].Hi)

	// CDF knots at every 2% of the population.
	step := len(logs) / 50
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(logs); i += step {
		out.CDF = append(out.CDF, CDFPoint{Log10Req: logs[i], Frac: float64(i+1) / float64(len(logs))})
	}
	out.CDF = append(out.CDF, CDFPoint{Log10Req: logs[len(logs)-1], Frac: 1})
	return out
}

// LifespanStats summarises §4.3's lifespan and activity-density analysis.
type LifespanStats struct {
	Functions      int
	FracSingleDay  float64 // active exactly one day
	FracUnder5Days float64 // lifespan < 5 days
	FracFullWindow float64 // active across the whole window
	MeanDays       float64
	FracDensityOne float64 // invoked on every day of their lifespan
	// LongLivedRare counts functions alive > 90% of the window with at
	// most two invocations (the paper found four).
	LongLivedRare int
}

// Lifespan computes §4.3 over per-function stats.
func Lifespan(fns []*pdns.FQDNStats, w pdns.Window) LifespanStats {
	out := LifespanStats{Functions: len(fns)}
	if len(fns) == 0 {
		return out
	}
	var single, under5, full, denseOne, longRare int
	var sum float64
	for _, f := range fns {
		l := f.Lifespan()
		sum += float64(l)
		if l == 1 {
			single++
		}
		if l < 5 {
			under5++
		}
		if l >= w.Days() {
			full++
		}
		if f.ActivityDensity() >= 1 {
			denseOne++
		}
		if l > int(0.9*float64(w.Days())) && f.TotalRequest <= 2 {
			longRare++
		}
	}
	n := float64(len(fns))
	out.FracSingleDay = float64(single) / n
	out.FracUnder5Days = float64(under5) / n
	out.FracFullWindow = float64(full) / n
	out.MeanDays = sum / n
	out.FracDensityOne = float64(denseOne) / n
	out.LongLivedRare = longRare
	return out
}

// Table2Row is one provider row of Table 2.
type Table2Row struct {
	Provider providers.ID
	Domains  int
	Requests int64
	Regions  int

	AShare, CNAMEShare, AAAAShare float64
	ARData, CNAMERData, AAAARData int
	ATop10, CNAMETop10, AAAATop10 float64
}

// Table2 builds the resolution rollup (Table 2) from the aggregate, in the
// paper's provider order.
func Table2(ag *pdns.Aggregate) []Table2Row {
	order := []providers.ID{
		providers.Aliyun, providers.Baidu, providers.Tencent, providers.Kingsoft,
		providers.AWS, providers.Google, providers.Google2, providers.IBM, providers.Oracle,
	}
	var out []Table2Row
	for _, id := range order {
		ps, ok := ag.ByProvider[id]
		if !ok {
			continue
		}
		row := Table2Row{
			Provider:   id,
			Domains:    ps.Domains,
			Requests:   ps.Requests,
			Regions:    len(ps.Regions),
			AShare:     ps.RTypeShare(pdns.TypeA),
			CNAMEShare: ps.RTypeShare(pdns.TypeCNAME),
			AAAAShare:  ps.RTypeShare(pdns.TypeAAAA),
		}
		if rs := ps.ByRType[pdns.TypeA]; rs != nil {
			row.ARData, row.ATop10 = rs.RDataCnt(), rs.Top10Share()
		}
		if rs := ps.ByRType[pdns.TypeCNAME]; rs != nil {
			row.CNAMERData, row.CNAMETop10 = rs.RDataCnt(), rs.Top10Share()
		}
		if rs := ps.ByRType[pdns.TypeAAAA]; rs != nil {
			row.AAAARData, row.AAAATop10 = rs.RDataCnt(), rs.Top10Share()
		}
		out = append(out, row)
	}
	return out
}

// ThirdPartyRow summarises one provider's reliance on external network
// infrastructure for ingress (Finding 3), measured from resolution data.
type ThirdPartyRow struct {
	Provider providers.ID
	// Shares of the provider's requests answered by each operator class.
	ProviderShare float64
	ThirdParty    map[string]float64
}

// ThirdPartyClassifier attributes one rdata value to an operator label;
// empty string means provider-owned. Injected so analysis does not bind to
// the simulator's address plan.
type ThirdPartyClassifier func(rdata string) string

// ThirdParty measures per-provider third-party ingress dependence from the
// aggregate's rdata distributions.
func ThirdParty(ag *pdns.Aggregate, classify ThirdPartyClassifier) []ThirdPartyRow {
	order := []providers.ID{
		providers.Aliyun, providers.Baidu, providers.Tencent, providers.Kingsoft,
		providers.AWS, providers.Google, providers.Google2, providers.IBM, providers.Oracle,
	}
	var out []ThirdPartyRow
	for _, id := range order {
		ps, ok := ag.ByProvider[id]
		if !ok {
			continue
		}
		row := ThirdPartyRow{Provider: id, ThirdParty: map[string]float64{}}
		var total, own int64
		third := map[string]int64{}
		for _, rs := range ps.ByRType {
			for rdata, cnt := range rs.ByRData {
				total += cnt
				if label := classify(rdata); label == "" {
					own += cnt
				} else {
					third[label] += cnt
				}
			}
		}
		if total == 0 {
			continue
		}
		row.ProviderShare = float64(own) / float64(total)
		for label, cnt := range third {
			row.ThirdParty[label] = float64(cnt) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// RegionNodes summarises the ingress concentration of Finding 2: per
// (provider, region), the number of distinct resolution results whose owning
// function sits in that region. Concentrated providers route a region's
// functions to 1–3 fixed nodes; AWS exposes thousands.
type RegionNodes struct {
	Provider providers.ID
	Region   string
	Nodes    int
	Requests int64
}

// IngressConcentration computes per-region distinct node counts from the
// per-function stats and raw records. Because the Aggregate keeps rdata
// distributions per provider (not per region), this pass re-scans records.
func IngressConcentration(records []pdns.Record, matcher *providers.Matcher) []RegionNodes {
	if matcher == nil {
		matcher = providers.NewMatcher(nil)
	}
	type key struct {
		id     providers.ID
		region string
	}
	nodes := map[key]map[string]struct{}{}
	reqs := map[key]int64{}
	for i := range records {
		r := &records[i]
		in, region, ok := matcher.IdentifyRegion(r.FQDN)
		if !ok {
			continue
		}
		k := key{in.ID, region}
		if nodes[k] == nil {
			nodes[k] = map[string]struct{}{}
		}
		nodes[k][r.RData] = struct{}{}
		reqs[k] += r.RequestCnt
	}
	out := make([]RegionNodes, 0, len(nodes))
	for k, set := range nodes {
		out = append(out, RegionNodes{Provider: k.id, Region: k.region, Nodes: len(set), Requests: reqs[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		return out[i].Region < out[j].Region
	})
	return out
}
