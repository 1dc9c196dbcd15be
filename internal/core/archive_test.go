package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runs"
)

func TestBuildArchiveShape(t *testing.T) {
	r := sharedRun(t)
	arch := r.BuildArchive("test", nil)

	if _, ok := arch.Summary.Meta["elapsed"]; ok {
		t.Fatal("elapsed is an outcome, not configuration — it must not reach the config hash")
	}
	for _, tg := range runs.PaperTargets {
		if _, ok := arch.Summary.Calibration[tg.Name]; !ok {
			t.Errorf("calibration missing %s", tg.Name)
		}
	}
	for _, name := range []string{"table2.txt", "table3.txt", "fig3.txt", "fig4.txt", "fig5.txt", "disclosures.txt"} {
		if arch.Artifacts[name] == "" {
			t.Errorf("artifact %s empty", name)
		}
	}
	if len(arch.Timings.Stages) == 0 || arch.Timings.ElapsedNS <= 0 {
		t.Fatalf("timings not populated: %+v", arch.Timings)
	}
	if arch.Summary.Tool != "test" {
		t.Fatalf("summary tool = %q, want test", arch.Summary.Tool)
	}
}

func TestArchiveWriteDeterministicAndSelfGates(t *testing.T) {
	r := sharedRun(t)
	d1, err := runs.Write(t.TempDir(), r.BuildArchive("test", nil))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := runs.Write(t.TempDir(), r.BuildArchive("test", nil))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(d1) != filepath.Base(d2) {
		t.Fatalf("same config must derive the same run ID: %s vs %s", d1, d2)
	}
	s1, err := os.ReadFile(filepath.Join(d1, runs.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.ReadFile(filepath.Join(d2, runs.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatal("summary.json (the deterministic half) must be byte-identical across writes")
	}

	a, err := runs.Read(d1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runs.Read(d2)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration gating is an absolute check against the paper's bands,
	// which are tuned for the golden scale-0.01 run — the tiny test scale
	// sits outside them by construction (internal/runs' golden tests cover
	// the in-band case). Every relative dimension must be clean.
	opts := runs.DefaultGateOptions()
	opts.Calibration = false
	if v := runs.Diff(a, b).Gate(opts); len(v) != 0 {
		t.Fatalf("a run must gate clean against itself: %v", v)
	}
}

func TestRunEmitsEventLog(t *testing.T) {
	elog := obs.NewEventLog()
	ctx := obs.ContextWithEventLog(context.Background(), elog)
	res, err := RunContext(ctx, Config{
		Seed: 11, Scale: 0.001, SkipC2Scan: true,
		ProbeTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := elog.Events()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	// Every pipeline stage brackets itself in the log.
	starts := map[string]bool{}
	ends := map[string]bool{}
	for _, e := range events {
		switch e.Type {
		case obs.EventStageStart:
			starts[e.Name] = true
		case obs.EventStageEnd:
			ends[e.Name] = true
		}
	}
	for _, stage := range []string{"substrate", "identify", "probe", "sanitise", "cluster", "classify", "assess", "disclosure"} {
		if !starts[stage] || !ends[stage] {
			t.Errorf("stage %s missing from event log (start=%v end=%v)", stage, starts[stage], ends[stage])
		}
	}
	// The final metric state is recorded once, in the archive's timings,
	// not repeated as an event.
	for _, e := range events {
		if e.Type == obs.EventMetrics {
			t.Fatalf("metrics event in the run's log: %+v", e)
		}
	}
	// The archive carries the same log.
	arch := res.BuildArchive("test", elog)
	if arch.Events.Len() != len(events) {
		t.Fatalf("archive event count %d != %d", arch.Events.Len(), len(events))
	}
	if len(arch.Timings.Metrics.Counters) == 0 {
		t.Fatal("archive timings carry no final metric snapshot")
	}
}
