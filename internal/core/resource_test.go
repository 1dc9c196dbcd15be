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

// TestPipelineResourceSampling runs the pipeline with the sampler enabled at
// several worker counts and checks that per-stage resource stats land in
// Results and in the archive's timings — and nowhere near the summary.
func TestPipelineResourceSampling(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{
			Seed: 7, Scale: 0.002, Workers: workers, SkipC2Scan: true,
			ProbeTimeout:   500 * time.Millisecond,
			SampleInterval: time.Millisecond,
		}
		elog := obs.NewEventLog()
		res, err := RunContext(obs.ContextWithEventLog(context.Background(), elog), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Resources) == 0 {
			t.Fatalf("workers=%d: no resource stats collected", workers)
		}
		known := map[string]bool{}
		for _, stage := range []string{"substrate", "identify", "probe", "sanitise", "cluster", "classify", "assess", "disclosure"} {
			known[stage] = true
		}
		var total int64
		for _, rs := range res.Resources {
			if !known[rs.Stage] {
				t.Errorf("workers=%d: unknown stage %q in resource stats", workers, rs.Stage)
			}
			if rs.MaxHeapInuseBytes == 0 || rs.MaxGoroutines == 0 {
				t.Errorf("workers=%d: stage %s has empty high-water marks: %+v", workers, rs.Stage, rs)
			}
			total += rs.Samples
		}
		if total == 0 {
			t.Fatalf("workers=%d: sampler reported zero samples", workers)
		}
		// The event log carries periodic resource records.
		sawResource := false
		for _, e := range elog.Events() {
			if e.Type == obs.EventResource {
				sawResource = true
				break
			}
		}
		if !sawResource {
			t.Fatalf("workers=%d: no EventResource records in the event log", workers)
		}
		// The archive routes the stats to the machine-varying side only.
		arch := res.BuildArchive("test", elog)
		if len(arch.Timings.Resources) != len(res.Resources) {
			t.Fatalf("workers=%d: timings resources %d != results %d", workers, len(arch.Timings.Resources), len(res.Resources))
		}
	}
}

// TestResourceSamplingPreservesGolden is the acceptance check for the
// sampler: enabling it must not move a single byte of the deterministic
// archive half — summary.json and every artifact stay identical to a
// sampling-off run of the same config.
func TestResourceSamplingPreservesGolden(t *testing.T) {
	run := func(interval time.Duration) (*Results, string) {
		res, err := Run(Config{
			Seed: 7, Scale: 0.002, Workers: 2, SkipC2Scan: true,
			ProbeTimeout:   500 * time.Millisecond,
			SampleInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir, err := runs.Write(t.TempDir(), res.BuildArchive("test", nil))
		if err != nil {
			t.Fatal(err)
		}
		return res, dir
	}
	resOff, dirOff := run(0)
	resOn, dirOn := run(time.Millisecond)

	if len(resOff.Resources) != 0 {
		t.Fatalf("interval 0 must disable sampling, got %d stats", len(resOff.Resources))
	}
	if len(resOn.Resources) == 0 {
		t.Fatal("sampling run collected no stats")
	}
	if filepath.Base(dirOff) != filepath.Base(dirOn) {
		t.Fatalf("run ID moved: %s vs %s — SampleInterval leaked into the config hash",
			filepath.Base(dirOff), filepath.Base(dirOn))
	}
	for _, name := range []string{
		runs.SummaryFile,
		"artifacts/table2.txt", "artifacts/table3.txt",
		"artifacts/fig3.txt", "artifacts/fig4.txt", "artifacts/fig5.txt",
		"artifacts/disclosures.txt",
	} {
		a, err := os.ReadFile(filepath.Join(dirOff, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirOn, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between sampling-off and sampling-on runs", name)
		}
	}
}
