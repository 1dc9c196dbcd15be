package runs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// baselineRecord builds an in-memory archive record shaped like a healthy
// pipeline run: stage timings, a populated latency histogram, calibration
// shares inside every paper band, and fingerprinted artifacts.
func baselineRecord() *Record {
	reg := obs.NewRegistry()
	h := reg.Histogram("probe_request_seconds", []float64{0.01, 0.05, 0.1, 0.5, 1})
	for i := 0; i < 99; i++ {
		h.Observe(0.02)
	}
	h.Observe(0.2) // p99 rank stays in the 0.05 bucket; p100 in the 0.5 bucket
	reg.Counter("pdns_records_scanned_total").Add(100000)
	return &Record{
		Dir: "a",
		Summary: Summary{
			ID:         "r-aaaaaaaaaaaa",
			ConfigHash: "aaaa",
			Calibration: map[string]float64{
				"unreachable_share": 0.0203,
				"http_404_share":    0.8931,
			},
			Artifacts: map[string]string{
				"table2.txt":      Fingerprint("t2"),
				"fig5.txt":        Fingerprint("f5"),
				"disclosures.txt": Fingerprint("d"),
			},
		},
		Timings: Timings{
			ElapsedNS: int64(10 * time.Second),
			Stages: []obs.StageTiming{
				{Path: "identify", WallNS: int64(2 * time.Second)},
				{Path: "probe", WallNS: int64(5 * time.Second)},
				{Path: "classify/c2-sweep", WallNS: int64(1 * time.Second)},
			},
			Metrics: reg.Snapshot(),
		},
	}
}

// clone deep-copies the parts of a record the tests mutate.
func clone(r *Record) *Record {
	c := *r
	c.Summary.Calibration = map[string]float64{}
	for k, v := range r.Summary.Calibration {
		c.Summary.Calibration[k] = v
	}
	c.Summary.Artifacts = map[string]string{}
	for k, v := range r.Summary.Artifacts {
		c.Summary.Artifacts[k] = v
	}
	c.Summary.Degradations = append([]obs.Degradation(nil), r.Summary.Degradations...)
	c.Timings.Stages = append([]obs.StageTiming(nil), r.Timings.Stages...)
	return &c
}

func TestGateIdenticalRunsPass(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	rep := Diff(a, b)
	if !rep.ConfigMatch {
		t.Fatal("identical records must config-match")
	}
	if v := rep.Gate(DefaultGateOptions()); len(v) != 0 {
		t.Fatalf("identical records must pass the gate, got %v", v)
	}
}

func TestGateFlagsInjectedSlowdown(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	b.Timings.Stages[1].WallNS *= 10 // probe: 5s -> 50s
	rep := Diff(a, b)
	v := rep.Gate(DefaultGateOptions())
	if len(v) != 1 || !strings.Contains(v[0], "stage probe wall regressed") {
		t.Fatalf("want one probe wall violation, got %v", v)
	}
}

func TestGateWallFloorAbsorbsSmallStages(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	// 10x ratio but only 90ms absolute — below the 500ms floor.
	a.Timings.Stages[2].WallNS = int64(10 * time.Millisecond)
	b.Timings.Stages[2].WallNS = int64(100 * time.Millisecond)
	rep := Diff(a, b)
	if v := rep.Gate(DefaultGateOptions()); len(v) != 0 {
		t.Fatalf("sub-floor delta must not gate, got %v", v)
	}
}

func TestGateP99Regression(t *testing.T) {
	a := baselineRecord()
	breg := obs.NewRegistry()
	h := breg.Histogram("probe_request_seconds", []float64{0.01, 0.05, 0.1, 0.5, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.4) // p99 lands in the 0.5 bucket vs baseline's 0.5-bucket tail at 0.2
	}
	b := clone(a)
	b.Timings.Metrics = breg.Snapshot()
	rep := Diff(a, b)
	var hd *HistDelta
	for i := range rep.Histograms {
		if rep.Histograms[i].Name == "probe_request_seconds" {
			hd = &rep.Histograms[i]
		}
	}
	if hd == nil {
		t.Fatal("missing probe_request_seconds delta")
	}
	if hd.AP99 <= 0 || hd.BP99 <= hd.AP99 {
		t.Fatalf("expected p99 growth, got %+v", hd)
	}
	// With a tight tolerance the growth gates; the default 2x may not.
	v := rep.Gate(GateOptions{WallTol: -1, P99Tol: 0.1, MinSamples: 50})
	if len(v) != 1 || !strings.Contains(v[0], "p99 regressed") {
		t.Fatalf("want one p99 violation, got %v", v)
	}
}

func TestGateClampedP99NotGated(t *testing.T) {
	a := baselineRecord()
	breg := obs.NewRegistry()
	h := breg.Histogram("probe_request_seconds", []float64{0.01, 0.05, 0.1, 0.5, 1})
	for i := 0; i < 100; i++ {
		h.Observe(5) // everything overflows: p99 clamps to the last bound
	}
	b := clone(a)
	b.Timings.Metrics = breg.Snapshot()
	rep := Diff(a, b)
	v := rep.Gate(GateOptions{WallTol: -1, P99Tol: 0.1, MinSamples: 50})
	if len(v) != 0 {
		t.Fatalf("clamped p99 is a floor, must not gate: %v", v)
	}
	// But the render warns about the clamp.
	if !strings.Contains(rep.Render(), "floor only") {
		t.Fatal("render should flag the clamped quantile")
	}
}

func TestGateMinSamples(t *testing.T) {
	a := baselineRecord()
	breg := obs.NewRegistry()
	h := breg.Histogram("probe_request_seconds", []float64{0.01, 0.05, 0.1, 0.5, 1})
	for i := 0; i < 10; i++ { // too few observations to trust
		h.Observe(0.4)
	}
	b := clone(a)
	b.Timings.Metrics = breg.Snapshot()
	rep := Diff(a, b)
	if v := rep.Gate(GateOptions{WallTol: -1, P99Tol: 0.1, MinSamples: 50}); len(v) != 0 {
		t.Fatalf("under-sampled histogram must not gate: %v", v)
	}
}

func TestGateDegradationDrift(t *testing.T) {
	a := baselineRecord()
	a.Summary.Degradations = []obs.Degradation{{Stage: "probe", Kind: "conn-retries", Count: 5}}
	b := clone(a)
	b.Summary.Degradations = []obs.Degradation{
		{Stage: "probe", Kind: "conn-retries", Count: 50}, // 50 > 2*5+10
		{Stage: "identify", Kind: "dropped-records", Count: 1},
	}
	rep := Diff(a, b)
	v := rep.Gate(GateOptions{WallTol: -1, P99Tol: -1, Degradations: true})
	if len(v) != 2 {
		t.Fatalf("want grown + new degradation violations, got %v", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "grew") || !strings.Contains(joined, "new degradation") {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Across differing configs, growth inside the 2A+10 envelope passes:
	// the runs drew different fault schedules.
	b.Summary.Degradations[0].Count = 15
	b.Summary.ConfigHash, b.Summary.ID = "bbbb", "r-bbbbbbbbbbbb"
	v = Diff(a, b).Gate(GateOptions{WallTol: -1, P99Tol: -1, Degradations: true})
	if len(v) != 2 || !strings.Contains(v[0], "config mismatch") || !strings.Contains(v[1], "new degradation") {
		t.Fatalf("only the config mismatch and the new kind should gate, got %v", v)
	}
}

// TestGateDegradationShrinks: under a matching config both runs drew the
// same seeded fault schedule, so a row that shrank, or vanished, is
// behaviour that changed. The counts are golden-chaos's truncations when a
// handshake-free HTTPS attempt survived its truncation budget.
func TestGateDegradationShrinks(t *testing.T) {
	a := baselineRecord()
	a.Summary.Degradations = []obs.Degradation{
		{Stage: "probe", Kind: "injected-truncations", Count: 426},
		{Stage: "probe", Kind: "conn-retries", Count: 912},
		{Stage: "probe", Kind: "injected-flaps", Count: 346},
	}
	b := clone(a)
	b.Summary.Degradations = []obs.Degradation{
		{Stage: "probe", Kind: "injected-truncations", Count: 111},
		{Stage: "probe", Kind: "conn-retries", Count: 912},
	}
	v := Diff(a, b).Gate(GateOptions{WallTol: -1, P99Tol: -1, Degradations: true})
	joined := strings.Join(v, "\n")
	if len(v) != 2 || !strings.Contains(joined, "injected-truncations shrank: 426 -> 111") ||
		!strings.Contains(joined, "injected-flaps shrank: 346 -> 0") {
		t.Fatalf("want the shrunk and the vanished row flagged, got %v", v)
	}
	if v := Diff(a, clone(a)).Gate(GateOptions{WallTol: -1, P99Tol: -1, Degradations: true}); len(v) != 0 {
		t.Fatalf("equal rows must pass, got %v", v)
	}
}

func TestGateDeterministicArtifactMismatch(t *testing.T) {
	a := baselineRecord()
	a.Summary.Artifacts["notes.txt"] = Fingerprint("n")
	b := clone(a)
	b.Summary.Artifacts["fig5.txt"] = Fingerprint("different")
	b.Summary.Artifacts["disclosures.txt"] = Fingerprint("also different")
	b.Summary.Artifacts["notes.txt"] = Fingerprint("n2")
	rep := Diff(a, b)
	v := rep.Gate(GateOptions{WallTol: -1, P99Tol: -1, Artifacts: true})
	// fig5.txt and disclosures.txt are in the deterministic gating set;
	// notes.txt is not, so it is recorded but must not fail the gate.
	if len(v) != 2 || !strings.Contains(strings.Join(v, "\n"), "fig5.txt") ||
		!strings.Contains(strings.Join(v, "\n"), "disclosures.txt") {
		t.Fatalf("want fig5.txt and disclosures.txt violations, got %v", v)
	}
}

func TestGateCalibrationBand(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	b.Summary.Calibration["http_404_share"] = 0.5 // far outside Fig 6's band
	rep := Diff(a, b)
	v := rep.Gate(GateOptions{WallTol: -1, P99Tol: -1, Calibration: true})
	if len(v) != 1 || !strings.Contains(v[0], "http_404_share") {
		t.Fatalf("want one calibration violation, got %v", v)
	}
	// Only the candidate side gates: a drifted baseline is history, not news.
	a.Summary.Calibration["unreachable_share"] = 0.9
	if v := Diff(a, b).Gate(GateOptions{WallTol: -1, P99Tol: -1, Calibration: true}); len(v) != 1 {
		t.Fatalf("baseline drift must not gate, got %v", v)
	}
}

func TestGateConfigMismatchNoted(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	b.Summary.ConfigHash = "bbbb"
	b.Summary.ID = "r-bbbbbbbbbbbb"
	v := Diff(a, b).Gate(GateOptions{WallTol: -1, P99Tol: -1})
	if len(v) != 1 || !strings.Contains(v[0], "config mismatch") {
		t.Fatalf("want config-mismatch violation, got %v", v)
	}
}

func TestDiffStageUnionAndThroughput(t *testing.T) {
	a := baselineRecord()
	b := clone(a)
	b.Timings.Stages = append(b.Timings.Stages, obs.StageTiming{Path: "extra", WallNS: 1e6})
	rep := Diff(a, b)
	var extra *StageDelta
	for i := range rep.Stages {
		if rep.Stages[i].Path == "extra" {
			extra = &rep.Stages[i]
		}
	}
	if extra == nil || extra.AWallNS != -1 || extra.BWallNS != 1e6 {
		t.Fatalf("B-only stage not unioned: %+v", extra)
	}
	var tp *ThroughputDelta
	for i := range rep.Throughput {
		if rep.Throughput[i].Name == "identify_records_per_s" {
			tp = &rep.Throughput[i]
		}
	}
	if tp == nil || tp.A != 50000 { // 100000 records / 2s
		t.Fatalf("identify throughput = %+v, want A=50000", tp)
	}
}
