package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// chaosActive reports whether the test binary runs under an SCF_CHAOS
// profile (`make chaos`); assertions calibrated on the clean substrate
// widen their tolerances accordingly.
func chaosActive() bool {
	p, err := fault.FromEnv()
	return err == nil && p.Enabled()
}

// chaosRun executes one pipeline run under a pinned heavy chaos profile.
func chaosRun(t *testing.T, workers int) *Results {
	t.Helper()
	res, err := Run(Config{
		Seed: 11, Scale: 0.002, Workers: workers,
		Chaos:        fault.Heavy().WithSeed(7),
		SkipC2Scan:   true,
		ProbeTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos pipeline (workers=%d): %v", workers, err)
	}
	return res
}

// faultCounters extracts the deterministic resilience counters of a run:
// everything here is a pure function of (chaos seed, FQDN) schedules, so two
// runs with the same seed must agree exactly, at any worker count.
func faultCounters(r *Results) map[string]int64 {
	snap := r.Metrics.Snapshot()
	out := map[string]int64{}
	for _, name := range []string{
		"fault_dns_injected_total",
		"fault_resets_injected_total",
		"fault_flaps_injected_total",
		"fault_truncations_injected_total",
		"fault_latency_injected_total",
		"fault_corrupt_records_total",
		"pdns_records_dropped_total",
		"probe_conn_retries_total",
	} {
		out[name] = snap.Counters[name]
	}
	out["probe_stats_dns_failures"] = int64(r.ProbeStats.DNSFailures)
	out["probe_stats_retried"] = int64(r.ProbeStats.Retried)
	return out
}

// TestPipelineChaosWorkerInvariance pins the acceptance criterion: with a
// fixed chaos seed, runs at different worker counts inject the identical
// fault schedule and produce identical drop/retry counts and identical
// Table 2–3 / Fig. 3–5 / disclosure outputs — every artifact the gate
// fingerprints (runs.DeterministicArtifacts).
func TestPipelineChaosWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three pipeline runs")
	}
	base := chaosRun(t, 1)
	baseCounters := faultCounters(base)
	baseRenders := map[string]string{
		"table2":      base.RenderTable2(),
		"table3":      base.RenderTable3(),
		"fig3":        base.RenderFigure3(),
		"fig4":        base.RenderFigure4(),
		"fig5":        base.RenderFigure5(),
		"disclosures": base.RenderDisclosures(),
	}
	if baseCounters["fault_resets_injected_total"] == 0 &&
		baseCounters["fault_dns_injected_total"] == 0 {
		t.Fatal("heavy chaos injected nothing; the invariance check is vacuous")
	}
	for _, workers := range []int{2, 8} {
		r := chaosRun(t, workers)
		if got := faultCounters(r); !reflect.DeepEqual(got, baseCounters) {
			t.Errorf("workers=%d fault counters diverged:\n got %v\nwant %v", workers, got, baseCounters)
		}
		for name, want := range baseRenders {
			var got string
			switch name {
			case "table2":
				got = r.RenderTable2()
			case "table3":
				got = r.RenderTable3()
			case "fig3":
				got = r.RenderFigure3()
			case "fig4":
				got = r.RenderFigure4()
			case "fig5":
				got = r.RenderFigure5()
			case "disclosures":
				got = r.RenderDisclosures()
			}
			if got != want {
				t.Errorf("workers=%d %s diverged from workers=1", workers, name)
			}
		}
		if !reflect.DeepEqual(degradationsByKind(r, "identify"), degradationsByKind(base, "identify")) {
			t.Errorf("workers=%d identify degradations diverged: %v vs %v",
				workers, r.Degradations, base.Degradations)
		}
	}
}

func degradationsByKind(r *Results, stage string) map[string]int64 {
	out := map[string]int64{}
	for _, d := range r.Degradations {
		if d.Stage == stage {
			out[d.Kind] = d.Count
		}
	}
	return out
}

// TestPipelineChaosHeavyCompletes pins the survival criterion: under the
// heavy profile the pipeline finishes and reports its degradation instead of
// aborting.
func TestPipelineChaosHeavyCompletes(t *testing.T) {
	r := chaosRun(t, 0)
	if len(r.Degradations) == 0 {
		t.Fatal("heavy chaos run recorded no degradations")
	}
	kinds := map[string]int64{}
	for _, d := range r.Degradations {
		kinds[d.Kind] = d.Count
	}
	for _, want := range []string{"injected-resets", "injected-corrupt-records", "dropped-records", "conn-retries"} {
		if kinds[want] == 0 {
			t.Errorf("degradations missing %q: %v", want, r.Degradations)
		}
	}
	// The run still identifies and probes the overwhelming majority.
	if got, want := r.Aggregate.TotalDomains(), len(r.Population.Functions); float64(got) < 0.9*float64(want) {
		t.Errorf("identified %d of %d domains under heavy chaos", got, want)
	}
	reachFrac := float64(r.ProbeStats.Reachable) / float64(r.ProbeStats.Probed)
	if reachFrac < 0.84 {
		t.Errorf("reachable fraction %.3f under heavy chaos, want >= 0.84", reachFrac)
	}
	if r.ProbeStats.Retried == 0 {
		t.Error("no probe retries under heavy chaos")
	}
	// Degradations flow into the archive summary for provenance.
	s := r.BuildArchive("test", nil).Summary
	if len(s.Degradations) != len(r.Degradations) {
		t.Errorf("summary carries %d degradations, results %d", len(s.Degradations), len(r.Degradations))
	}
	if s.Meta["chaos"] != "heavy,seed=7" {
		t.Errorf("summary chaos meta = %q", s.Meta["chaos"])
	}
	// Every metric the run's telemetry watches must exist in a heavy-chaos
	// run: a health rule, watch series or degradation row over a metric no
	// run registers can never fire, and its clean result means nothing.
	snap := r.Metrics.Snapshot()
	watched := timeline.DefaultWatch()
	for _, rule := range health.DefaultRules(r.Config.ProbeTimeout) {
		watched = append(watched, rule.Metric)
		if rule.Den != "" {
			watched = append(watched, rule.Den)
		}
	}
	for _, dm := range degradationMetrics {
		// Only checkpointing or a resume registers the pipeline-stage
		// recovery rows.
		if dm.stage != "pipeline" {
			watched = append(watched, dm.metric)
		}
	}
	for _, name := range watched {
		if !registered(snap, name) {
			t.Errorf("watched metric %q is absent from a heavy-chaos run", name)
		}
	}
}

// registered reports whether name is in the snapshot under any metric kind.
func registered(s obs.Snapshot, name string) bool {
	_, c := s.Counters[name]
	_, g := s.Gauges[name]
	_, h := s.Histograms[name]
	_, cv := s.CounterVecs[name]
	_, gv := s.GaugeVecs[name]
	_, hv := s.HistogramVecs[name]
	return c || g || h || cv || gv || hv
}

// TestPipelineChaosFlapRecovery verifies retries actually buy reachability:
// the same seed without retries loses the flapping endpoints the retrying
// run recovers.
func TestPipelineChaosFlapRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two pipeline runs")
	}
	withRetries := chaosRun(t, 0)
	bare, err := Run(Config{
		Seed: 11, Scale: 0.002,
		Chaos:        fault.Heavy().WithSeed(7),
		ProbeRetries: -1, // explicit off
		SkipC2Scan:   true,
		ProbeTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withRetries.ProbeStats.Reachable <= bare.ProbeStats.Reachable {
		t.Errorf("retries did not improve reachability: %d (retries) vs %d (bare)",
			withRetries.ProbeStats.Reachable, bare.ProbeStats.Reachable)
	}
}

// TestPipelineChaosNone pins the opt-out: an explicit none profile injects
// nothing, records no degradations, and reproduces exactly.
func TestPipelineChaosNone(t *testing.T) {
	run := func() *Results {
		r, err := Run(Config{
			Seed: 11, Scale: 0.001,
			Chaos:        fault.None(),
			SkipC2Scan:   true,
			ProbeTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Degradations) != 0 {
		t.Errorf("chaos-free run recorded degradations: %v", a.Degradations)
	}
	snap := a.Metrics.Snapshot()
	for name, v := range snap.Counters {
		if v != 0 && (name == "fault_resets_injected_total" || name == "fault_corrupt_records_total" ||
			name == "fault_dns_injected_total" || name == "pdns_records_dropped_total") {
			t.Errorf("chaos-free run has %s = %d", name, v)
		}
	}
	if a.RenderTable2() != b.RenderTable2() || a.RenderFigure5() != b.RenderFigure5() {
		t.Error("chaos-free runs diverged")
	}
	if a.Config.Chaos.String() != "none" {
		t.Errorf("resolved chaos profile = %q, want none", a.Config.Chaos.String())
	}
}

// TestDegradationCollection checks the metric → degradation mapping directly.
func TestDegradationCollection(t *testing.T) {
	reg := obs.NewRegistry()
	if got := collectDegradations(reg); len(got) != 0 {
		t.Fatalf("empty registry produced degradations: %v", got)
	}
	reg.Counter("probe_conn_retries_total").Add(3)
	reg.Counter("fault_resets_injected_total").Add(2)
	reg.Counter("probe_requests_total").Add(99) // not a degradation metric
	got := collectDegradations(reg)
	want := []obs.Degradation{
		{Stage: "probe", Kind: "injected-resets", Count: 2},
		{Stage: "probe", Kind: "conn-retries", Count: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degradations = %v, want %v", got, want)
	}
}
