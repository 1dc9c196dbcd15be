package core

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/report"
)

// TestTimelinePreservesGolden is the golden-preservation proof for
// -sample-interval: at several worker counts, a recorded run's
// deterministic half — run ID, summary, and every artifact — is
// byte-identical to the unrecorded run's. The timeline observes the
// pipeline; it must never move the measurement.
func TestTimelinePreservesGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		base := timelineRun(t, workers, 0, fault.None())
		rec := timelineRun(t, workers, 50*time.Millisecond, fault.None())

		if got, want := rec.RunID(), base.RunID(); got != want {
			t.Fatalf("workers=%d: recorded run ID %s != unrecorded %s", workers, got, want)
		}
		barch := base.BuildArchive("test", obs.NewEventLog())
		rarch := rec.BuildArchive("test", obs.NewEventLog())
		bsum, err := json.Marshal(barch.Summary)
		if err != nil {
			t.Fatal(err)
		}
		rsum, err := json.Marshal(rarch.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if string(bsum) != string(rsum) {
			t.Fatalf("workers=%d: recorded summary differs from unrecorded", workers)
		}
		for name, content := range barch.Artifacts {
			if rarch.Artifacts[name] != content {
				t.Fatalf("workers=%d: artifact %s differs under -sample-interval", workers, name)
			}
		}

		// The recorded side actually recorded; the unrecorded side has
		// nothing; everything recorded reaches the archive.
		if len(base.Timeline) != 0 {
			t.Fatalf("workers=%d: unrecorded run has %d windows", workers, len(base.Timeline))
		}
		if len(rec.Timeline) == 0 {
			t.Fatalf("workers=%d: recorded run has no windows", workers)
		}
		if len(rarch.Timeline) != len(rec.Timeline) {
			t.Fatalf("workers=%d: archive carries %d windows, results %d", workers, len(rarch.Timeline), len(rec.Timeline))
		}
	}
}

// TestTimelineChaosAnomalies pins the acceptance criterion: a chaos-heavy
// run's timeline annotates at least one anomaly window (injected faults
// activate watched error-class series), while a chaos-none run annotates
// none (its watchlist metrics stay at zero).
func TestTimelineChaosAnomalies(t *testing.T) {
	clean := timelineRun(t, 4, 50*time.Millisecond, fault.None())
	if n := timeline.AnomalyCount(clean.Timeline); n != 0 {
		t.Fatalf("chaos-none timeline has %d anomalies, want 0", n)
	}
	heavy := timelineRun(t, 4, 50*time.Millisecond, fault.Heavy().WithSeed(7))
	if n := timeline.AnomalyCount(heavy.Timeline); n < 1 {
		t.Fatalf("chaos-heavy timeline has %d anomalies, want >= 1", n)
	}
	for _, w := range heavy.Timeline {
		for _, a := range w.Anomalies {
			if a.Kind != "activation" && a.Kind != "drift" {
				t.Fatalf("window %d anomaly kind %q unknown", w.Index, a.Kind)
			}
		}
	}
}

// TestTimelineStageAnnotations: windows carry the pipeline's stages in
// execution order (flattening per-window Stages reproduces the stage
// sequence), window indexes are consecutive from zero, and time never runs
// backwards.
func TestTimelineStageAnnotations(t *testing.T) {
	res := timelineRun(t, 2, 20*time.Millisecond, fault.None())
	var stages []string
	for i, w := range res.Timeline {
		if w.Index != int64(i) {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.EndUS < w.StartUS {
			t.Fatalf("window %d runs backwards: %d..%d", i, w.StartUS, w.EndUS)
		}
		if i > 0 && w.StartUS != res.Timeline[i-1].EndUS {
			t.Fatalf("window %d starts at %d, previous ended at %d", i, w.StartUS, res.Timeline[i-1].EndUS)
		}
		for _, s := range w.Stages {
			if len(stages) == 0 || stages[len(stages)-1] != s {
				stages = append(stages, s)
			}
		}
	}
	want := []string{"substrate", "identify", "probe", "sanitise", "cluster", "classify", "assess", "disclosure"}
	if len(stages) != len(want) {
		t.Fatalf("stage sequence = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage sequence = %v, want %v", stages, want)
		}
	}
}

// TestTimelineRecordsColumn: over a real recorded run, the rendered
// timeline's records column sums to the identify stage's scanned-record
// count — every PDNS record lands in exactly one window.
func TestTimelineRecordsColumn(t *testing.T) {
	res := timelineRun(t, 2, 20*time.Millisecond, fault.None())
	var sum int64
	for _, line := range strings.Split(report.RenderTimeline("test", res.Timeline), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(cells[5]), 10, 64)
		if err != nil {
			continue // header and separator rows
		}
		sum += n
	}
	if sum == 0 || sum != res.Aggregate.Scanned {
		t.Fatalf("records column sums to %d, identify scanned %d", sum, res.Aggregate.Scanned)
	}
}

func timelineRun(t *testing.T, workers int, interval time.Duration, chaos fault.Profile) *Results {
	t.Helper()
	cfg := Config{
		Seed: 7, Scale: 0.002, Workers: workers, SkipC2Scan: true,
		ProbeTimeout:   500 * time.Millisecond,
		Chaos:          chaos,
		SampleInterval: interval,
	}
	elog := obs.NewEventLog()
	res, err := RunContext(obs.ContextWithEventLog(context.Background(), elog), cfg)
	if err != nil {
		t.Fatalf("workers=%d interval=%v: %v", workers, interval, err)
	}
	return res
}
