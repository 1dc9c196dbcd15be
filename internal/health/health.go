// Package health evaluates declarative SLO rules against the observability
// registry while a run executes. Rules are ratios, quantile bounds, or raw
// thresholds over (possibly labeled) metrics, optionally grouped by one
// label — "conn-failure share per provider below 2%", "probe p99 per
// provider under 3x the timeout", "feed drop rate under 0.1%". A Monitor
// evaluates every rule over a rolling window of the snapshots the run's
// observer hands it (internal/obs/timeline), and emits a structured health
// event into the run's event log the first time a (rule, group) fires;
// Finalize re-evaluates cumulatively and returns the full per-group result
// table for the report.
//
// Everything here reads the registry and writes the event log — the two
// machine-varying surfaces of a run. Nothing feeds the deterministic run
// summary, so enabling the monitor cannot move a run ID or a golden
// fingerprint.
package health

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Rule is one declarative SLO bound. Metric names a counter, counter
// vector, or histogram vector in the registry; the rule fires for a group
// when its evaluated value exceeds Max.
type Rule struct {
	// Name identifies the rule in events and the report table.
	Name string
	// Metric is the metric evaluated. With Quantile set it must be a
	// histogram (vector); otherwise a counter (vector).
	Metric string
	// Match filters the metric's series to those carrying every given
	// label=value before aggregation (numerator only). Nil keeps all.
	Match map[string]string
	// Per groups evaluation by this label, yielding one result per label
	// value; empty evaluates the aggregate as a single group.
	Per string
	// Den, when set, names the denominator metric: the rule's value is
	// matched-Metric / Den within each group. When empty the value is the
	// raw sum (or the Quantile for histogram rules).
	Den string
	// Quantile, when positive, evaluates this quantile of the histogram
	// instead of a counter sum.
	Quantile float64
	// Max is the inclusive upper bound; a value strictly above it fires.
	Max float64
	// MinSamples suppresses evaluation of groups with fewer samples
	// (denominator sum, or histogram count) — small groups make noisy
	// ratios.
	MinSamples int64
}

// Result is one rule evaluation for one group.
type Result struct {
	Rule    string  `json:"rule"`
	Group   string  `json:"group,omitempty"` // Per-label value; "" for aggregate rules
	Value   float64 `json:"value"`
	Max     float64 `json:"max"`
	Samples int64   `json:"samples"`
	Window  string  `json:"window"` // "run", or the rolling window that first fired
	Fired   bool    `json:"fired"`
	// WindowIndex is the telemetry-timeline window the firing was first
	// attributed to — the window closed by the observer tick that saw it —
	// when the run records a timeline; 0 otherwise. Machine-varying: it
	// depends on where wall-clock windows fell, so it never feeds the
	// deterministic summary.
	WindowIndex int64 `json:"window_index,omitempty"`
}

// DefaultRules is the pipeline's SLO rule set. The bounds are chosen so a
// clean (chaos-none) golden run passes every rule — its legitimate DNS
// failures and probe timeouts are measurement results, not SLO breaches —
// while injected faults (connection resets, feed corruption, breaker trips)
// fire.
func DefaultRules(probeTimeout time.Duration) []Rule {
	to := probeTimeout.Seconds()
	if to <= 0 {
		to = 2
	}
	return []Rule{
		{
			// Share of probes ending in a connection-class failure, per
			// provider. Clean endpoints refuse nothing; resets are injected.
			Name:   "probe-conn-error-rate",
			Metric: "probe_outcomes_total",
			Match:  map[string]string{"outcome": "conn"},
			Per:    "provider", Den: "probe_outcomes_total",
			Max: 0.02, MinSamples: 50,
		},
		{
			// Probe p99 per provider. A held request ends as soon as its
			// deadline fires over the in-memory edge, so it shows up in
			// probe_request_seconds in milliseconds and probe_timeouts_total
			// is what counts it; this rule sees ordinary requests. On a
			// kernel socket a timeout clamps request latency at the probe
			// timeout, so 3x timeout only trips if the latency distribution
			// escapes the ceiling entirely.
			Name:   "probe-p99-latency",
			Metric: "probe_request_seconds",
			Per:    "provider", Quantile: 0.99,
			Max: 3 * to, MinSamples: 50,
		},
		{
			// Any opened probe circuit means a provider substrate was
			// failing hard enough to trip the breaker.
			Name:   "breaker-opens",
			Metric: "fault_breaker_opens_total",
			Max:    0,
		},
		{
			// Share of PDNS records dropped at ingest validation.
			Name:   "feed-drop-rate",
			Metric: "pdns_records_dropped_total",
			Den:    "pdns_records_scanned_total",
			Max:    0.001, MinSamples: 1000,
		},
	}
}

// Evaluate runs every rule against one snapshot and returns one result per
// evaluated group, in rule order then group order. Groups below MinSamples
// and metrics absent from the snapshot produce no result.
func Evaluate(s obs.Snapshot, rules []Rule, window string) []Result {
	var out []Result
	for _, r := range rules {
		out = append(out, evalRule(s, r, window)...)
	}
	return out
}

func evalRule(s obs.Snapshot, r Rule, window string) []Result {
	var out []Result
	if r.Quantile > 0 {
		for group, h := range histGroups(s, r.Metric, r.Per, r.Match) {
			if h.Count < r.MinSamples {
				continue
			}
			v := h.Quantile(r.Quantile)
			out = append(out, Result{
				Rule: r.Name, Group: group, Value: v, Max: r.Max,
				Samples: h.Count, Window: window, Fired: v > r.Max,
			})
		}
		sortResults(out)
		return out
	}
	num := counterGroups(s, r.Metric, r.Per, r.Match)
	if num == nil {
		return nil
	}
	if r.Den == "" {
		for group, n := range num {
			if n < r.MinSamples {
				continue
			}
			v := float64(n)
			out = append(out, Result{
				Rule: r.Name, Group: group, Value: v, Max: r.Max,
				Samples: n, Window: window, Fired: v > r.Max,
			})
		}
		sortResults(out)
		return out
	}
	den := counterGroups(s, r.Den, r.Per, nil)
	for group, d := range den {
		if d == 0 || d < r.MinSamples {
			continue
		}
		v := float64(num[group]) / float64(d)
		out = append(out, Result{
			Rule: r.Name, Group: group, Value: v, Max: r.Max,
			Samples: d, Window: window, Fired: v > r.Max,
		})
	}
	sortResults(out)
	return out
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Group < rs[j].Group })
}

// counterGroups resolves a counter (vector) name into per-group sums: the
// vector form groups and filters by labels; the plain-counter form only
// supports the aggregate, unfiltered case.
func counterGroups(s obs.Snapshot, name, per string, match map[string]string) map[string]int64 {
	if v, ok := s.CounterVecs[name]; ok {
		return v.SumBy(per, match)
	}
	if c, ok := s.Counters[name]; ok && per == "" && len(match) == 0 {
		return map[string]int64{"": c}
	}
	return nil
}

func histGroups(s obs.Snapshot, name, per string, match map[string]string) map[string]obs.HistogramSnapshot {
	if v, ok := s.HistogramVecs[name]; ok {
		return v.MergeBy(per, match)
	}
	if h, ok := s.Histograms[name]; ok && per == "" && len(match) == 0 {
		return map[string]obs.HistogramSnapshot{"": h}
	}
	return nil
}

// Monitor evaluates rules over a rolling window of registry snapshots and
// remembers the first firing of each (rule, group). It owns no goroutine and
// no clock: the run's observer hands it one snapshot per tick and serialises
// every call. A nil *Monitor is a valid no-op, like the rest of the
// observability layer.
type Monitor struct {
	elog   *obs.EventLog
	rules  []Rule
	window time.Duration
	ring   []timedSnap
	fired  map[string]Result // rule\x00group → first firing
}

type timedSnap struct {
	at   time.Time
	snap obs.Snapshot
}

// NewMonitor builds a monitor that logs firings into elog and evaluates its
// rules over a 10s rolling window.
func NewMonitor(elog *obs.EventLog, rules []Rule) *Monitor {
	return &Monitor{
		elog:   elog,
		rules:  rules,
		window: 10 * time.Second,
		fired:  make(map[string]Result),
	}
}

// Observe evaluates every rule over the delta between the oldest snapshot
// still inside the rolling window and snap, taken at now, and returns the
// (rule, group) pairs firing for the first time. keep adds snap to the
// window's ring; the observer keeps at most one snapshot per 500ms, so the
// ring stays small at any sampling interval. window is the timeline window
// the firings are attributed to, or -1 when the run records no timeline.
func (m *Monitor) Observe(now time.Time, snap obs.Snapshot, keep bool, window int64) []Result {
	if m == nil {
		return nil
	}
	cut := 0
	for cut < len(m.ring) && now.Sub(m.ring[cut].at) > m.window {
		cut++
	}
	m.ring = m.ring[cut:]
	var base *obs.Snapshot
	if len(m.ring) > 0 {
		base = &m.ring[0].snap
	}
	if keep {
		m.ring = append(m.ring, timedSnap{at: now, snap: snap})
	}
	if base == nil {
		return nil
	}
	var first []Result
	label := fmt.Sprintf("%gs", m.window.Seconds())
	for _, res := range Evaluate(obs.DeltaSnapshot(*base, snap), m.rules, label) {
		if res.Fired && m.recordFiring(&res, window) {
			first = append(first, res)
		}
	}
	return first
}

// recordFiring stamps res with window (when >= 0), stores it, and logs it,
// unless its (rule, group) already fired. It reports whether res was new.
func (m *Monitor) recordFiring(res *Result, window int64) bool {
	key := res.Rule + "\x00" + res.Group
	if _, seen := m.fired[key]; seen {
		return false
	}
	attrs := []obs.Attr{
		{Key: "group", Value: res.Group},
		{Key: "value", Value: fmt.Sprintf("%.6g", res.Value)},
		{Key: "max", Value: fmt.Sprintf("%.6g", res.Max)},
		{Key: "window", Value: res.Window},
		{Key: "samples", Value: fmt.Sprintf("%d", res.Samples)},
	}
	if window >= 0 {
		res.WindowIndex = window
		attrs = append(attrs, obs.Attr{Key: "window_index", Value: fmt.Sprintf("%d", window)})
	}
	m.fired[key] = *res
	m.elog.Emit(obs.EventHealth, res.Rule, attrs...)
	return true
}

// Finalize evaluates every rule against the cumulative snapshot snap,
// merges in the rolling-window firings (a transient breach stays fired even
// if the whole-run value recovered), and returns the full result table
// sorted by rule then group, plus the pairs that fired for the first time
// here (stamped with window, as in Observe).
func (m *Monitor) Finalize(snap obs.Snapshot, window int64) (table, first []Result) {
	if m == nil {
		return nil, nil
	}
	final := Evaluate(snap, m.rules, "run")
	for i := range final {
		res := &final[i]
		key := res.Rule + "\x00" + res.Group
		if res.Fired {
			if m.recordFiring(res, window) {
				first = append(first, *res)
			}
			// The cumulative row keeps its whole-run value, but the window
			// stamp belongs to the first firing — that's when it happened.
			res.WindowIndex = m.fired[key].WindowIndex
		} else if f, ok := m.fired[key]; ok {
			*res = f // transient mid-run breach: keep the firing
		}
	}
	// Groups that fired mid-run but fell below MinSamples (or vanished) in
	// the cumulative view still belong in the table.
	have := make(map[string]bool, len(final))
	for _, res := range final {
		have[res.Rule+"\x00"+res.Group] = true
	}
	for key, f := range m.fired {
		if !have[key] {
			final = append(final, f)
		}
	}
	order := make(map[string]int, len(m.rules))
	for i, r := range m.rules {
		order[r.Name] = i
	}
	sort.Slice(final, func(i, j int) bool {
		if order[final[i].Rule] != order[final[j].Rule] {
			return order[final[i].Rule] < order[final[j].Rule]
		}
		return final[i].Group < final[j].Group
	})
	return final, first
}

// Fired reports whether any result in rs fired.
func Fired(rs []Result) bool {
	for _, r := range rs {
		if r.Fired {
			return true
		}
	}
	return false
}
