package health

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestEvaluateRateRulePerGroup(t *testing.T) {
	r := obs.NewRegistry()
	v := r.CounterVec("probe_outcomes_total", "provider", "outcome", "attempt_class")
	v.With("aws", "ok", "first").Add(90)
	v.With("aws", "conn", "first").Add(10) // 10% conn failures
	v.With("gcp", "ok", "first").Add(100)  // clean
	v.With("tiny", "conn", "first").Add(3) // below MinSamples

	rules := []Rule{{
		Name:   "conn-rate",
		Metric: "probe_outcomes_total",
		Match:  map[string]string{"outcome": "conn"},
		Per:    "provider", Den: "probe_outcomes_total",
		Max: 0.02, MinSamples: 50,
	}}
	res := Evaluate(r.Snapshot(), rules, "run")
	if len(res) != 2 {
		t.Fatalf("results = %+v, want 2 groups (tiny suppressed by MinSamples)", res)
	}
	byGroup := map[string]Result{}
	for _, re := range res {
		byGroup[re.Group] = re
	}
	if !byGroup["aws"].Fired || byGroup["aws"].Value != 0.1 {
		t.Fatalf("aws = %+v, want fired at 0.1", byGroup["aws"])
	}
	if byGroup["gcp"].Fired || byGroup["gcp"].Value != 0 {
		t.Fatalf("gcp = %+v, want clean", byGroup["gcp"])
	}
}

func TestEvaluateQuantileRule(t *testing.T) {
	r := obs.NewRegistry()
	hv := r.HistogramVec("probe_request_seconds", []float64{0.5, 1, 2, 4}, "provider")
	for i := 0; i < 100; i++ {
		hv.With("slow").Observe(3) // p99 = 4-bucket upper bound region
		hv.With("fast").Observe(0.1)
	}
	rules := []Rule{{
		Name:   "p99",
		Metric: "probe_request_seconds",
		Per:    "provider", Quantile: 0.99,
		Max: 1, MinSamples: 50,
	}}
	res := Evaluate(r.Snapshot(), rules, "run")
	byGroup := map[string]Result{}
	for _, re := range res {
		byGroup[re.Group] = re
	}
	if !byGroup["slow"].Fired {
		t.Fatalf("slow = %+v, want fired (p99 > 1s)", byGroup["slow"])
	}
	if byGroup["fast"].Fired {
		t.Fatalf("fast = %+v, want clean", byGroup["fast"])
	}
}

// A raw-threshold rule falls back to the plain counter when no vector of
// that name exists, and is skipped entirely when the metric is absent.
func TestEvaluateRawCounterFallback(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("fault_breaker_opens_total").Add(2)
	rules := []Rule{
		{Name: "breaker", Metric: "fault_breaker_opens_total", Max: 0},
		{Name: "absent", Metric: "no_such_metric", Max: 0},
	}
	res := Evaluate(r.Snapshot(), rules, "run")
	if len(res) != 1 || res[0].Rule != "breaker" || !res[0].Fired || res[0].Value != 2 {
		t.Fatalf("results = %+v, want one fired breaker result", res)
	}
}

// The monitor's rolling-window evaluation works on snapshot deltas: a burst
// of failures confined to the window fires even though lifetime totals
// stay modest, and the first firing per (rule, group) lands in the event
// log exactly once.
func TestMonitorTickAndFinalize(t *testing.T) {
	r := obs.NewRegistry()
	elog := obs.NewEventLog()
	v := r.CounterVec("probe_outcomes_total", "provider", "outcome", "attempt_class")
	rules := []Rule{{
		Name:   "conn-rate",
		Metric: "probe_outcomes_total",
		Match:  map[string]string{"outcome": "conn"},
		Per:    "provider", Den: "probe_outcomes_total",
		Max: 0.02, MinSamples: 50,
	}}
	m := NewMonitor(elog, rules)

	// Drive ticks by hand — no goroutine, no wall-clock dependence.
	base := time.Unix(1000, 0)
	m.Observe(base, r.Snapshot(), true, -1)
	v.With("aws", "ok", "first").Add(40)
	v.With("aws", "conn", "first").Add(20) // 33% conn within the window
	if first := m.Observe(base.Add(time.Second), r.Snapshot(), true, -1); len(first) != 1 {
		t.Fatalf("tick firings = %+v, want the aws conn-rate firing", first)
	}

	res, first := m.Finalize(r.Snapshot(), -1)
	if len(first) != 0 {
		t.Fatalf("finalize re-reported %+v as a first firing", first)
	}
	if !Fired(res) {
		t.Fatalf("results = %+v, want the aws conn-rate firing to survive finalize", res)
	}
	var fired *Result
	for i := range res {
		if res[i].Fired {
			fired = &res[i]
		}
	}
	if fired.Group != "aws" {
		t.Fatalf("firing = %+v, want group aws", fired)
	}

	// The event was logged at tick time, against the rolling window, and the
	// cumulative re-firing at Finalize deduplicated instead of double-logging.
	var events strings.Builder
	if err := elog.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(events.String(), `"type":"health"`); got != 1 {
		t.Fatalf("health events = %d, want exactly 1:\n%s", got, events.String())
	}
	if !strings.Contains(events.String(), `{"key":"window","value":"10s"}`) {
		t.Fatalf("health event lacks the rolling window:\n%s", events.String())
	}
}

// A transient breach stays fired in the final table even when the cumulative
// whole-run value recovers below the bound.
func TestMonitorTransientBreachSticks(t *testing.T) {
	r := obs.NewRegistry()
	elog := obs.NewEventLog()
	v := r.CounterVec("probe_outcomes_total", "provider", "outcome", "attempt_class")
	rules := []Rule{{
		Name:   "conn-rate",
		Metric: "probe_outcomes_total",
		Match:  map[string]string{"outcome": "conn"},
		Per:    "provider", Den: "probe_outcomes_total",
		Max: 0.02, MinSamples: 50,
	}}
	m := NewMonitor(elog, rules)
	base := time.Unix(2000, 0)
	m.Observe(base, r.Snapshot(), true, -1)
	v.With("aws", "conn", "first").Add(30)
	v.With("aws", "ok", "first").Add(30)
	m.Observe(base.Add(time.Second), r.Snapshot(), true, -1) // 50% conn in the window: fires
	// Recovery: flood of successes pushes the cumulative rate under 2%.
	v.With("aws", "ok", "first").Add(100000)

	res, _ := m.Finalize(r.Snapshot(), -1)
	if !Fired(res) {
		t.Fatalf("results = %+v, want the transient breach kept fired", res)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	if res := m.Observe(time.Unix(0, 0), obs.Snapshot{}, true, 0); res != nil {
		t.Fatalf("nil monitor observe = %+v", res)
	}
	if res, first := m.Finalize(obs.Snapshot{}, 0); res != nil || first != nil {
		t.Fatalf("nil monitor finalize = %+v, %+v", res, first)
	}
}

// The default rule set stays quiet on an all-success registry and fires the
// feed-drop-rate rule once the drop share passes its bound.
func TestDefaultRulesFeedDrop(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("pdns_records_scanned_total").Add(10000)
	r.Counter("pdns_records_dropped_total").Add(0)
	rules := DefaultRules(2 * time.Second)
	if Fired(Evaluate(r.Snapshot(), rules, "run")) {
		t.Fatal("clean feed fired a default rule")
	}
	r.Counter("pdns_records_dropped_total").Add(200) // 2% drops
	if !Fired(Evaluate(r.Snapshot(), rules, "run")) {
		t.Fatal("2% feed drop rate did not fire feed-drop-rate")
	}
}

// TestMonitorTimelineHooks: a first firing is stamped with the timeline
// window its tick closes, the event log carries a window_index attribute,
// the firing is reported once (the cumulative re-firing at Finalize
// deduplicates and keeps the stamp), and a firing first seen at Finalize
// takes Finalize's window. Without a timeline (window -1) nothing is
// stamped.
func TestMonitorTimelineHooks(t *testing.T) {
	r := obs.NewRegistry()
	elog := obs.NewEventLog()
	m := NewMonitor(elog, []Rule{
		{Name: "corrupt", Metric: "fault_corrupt_records_total", Max: 0},
		{Name: "opens", Metric: "fault_breaker_opens_total", Max: 0},
	})

	base := time.Unix(1000, 0)
	m.Observe(base, r.Snapshot(), true, 6)
	r.Counter("fault_corrupt_records_total").Add(3)
	first := m.Observe(base.Add(time.Second), r.Snapshot(), true, 7)
	if len(first) != 1 || first[0].Rule != "corrupt" || first[0].WindowIndex != 7 {
		t.Fatalf("tick firings = %+v, want one firing stamped window 7", first)
	}
	r.Counter("fault_breaker_opens_total").Add(1)
	res, last := m.Finalize(r.Snapshot(), 9)
	if len(last) != 1 || last[0].Rule != "opens" || last[0].WindowIndex != 9 {
		t.Fatalf("finalize firings = %+v, want only opens, stamped window 9", last)
	}
	stamps := map[string]int64{}
	for _, rr := range res {
		if rr.Fired {
			stamps[rr.Rule] = rr.WindowIndex
		}
	}
	if stamps["corrupt"] != 7 || stamps["opens"] != 9 {
		t.Fatalf("final stamps = %v, want corrupt 7 and opens 9", stamps)
	}
	var events strings.Builder
	if err := elog.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`{"key":"window_index","value":"7"}`, `{"key":"window_index","value":"9"}`} {
		if !strings.Contains(events.String(), want) {
			t.Fatalf("health events lack %s:\n%s", want, events.String())
		}
	}

	// Without a timeline: no stamp, no attribute.
	elog2 := obs.NewEventLog()
	m2 := NewMonitor(elog2, []Rule{{Name: "corrupt", Metric: "fault_corrupt_records_total", Max: 0}})
	if res, _ := m2.Finalize(r.Snapshot(), -1); !Fired(res) || res[0].WindowIndex != 0 {
		t.Fatalf("untimed results = %+v, want fired and unstamped", res)
	}
	events.Reset()
	elog2.WriteJSONL(&events)
	if strings.Contains(events.String(), "window_index") {
		t.Fatalf("untimed health event carries window_index:\n%s", events.String())
	}
}
