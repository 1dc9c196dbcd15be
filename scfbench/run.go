package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds one run, children included, well inside the three
// minutes a run may take.
const runDeadline = 170 * time.Second

// minSetupSamples is how many set-up times setup_s is the median of. Runs
// whose measured children are fewer top up with set-up-only children, which
// do everything a measured child does up to its timed section. One set-up
// time spreads by about a quarter between quartiles, so the median needs
// this many to hold still from run to run.
const minSetupSamples = 21

// envT0 carries the parent's clock reading taken just before it starts a
// child, so the child's set-up time includes exec and runtime start-up.
const envT0 = "SCFBENCH_T0"

type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	summary           []string
}

func newRunResult() *runResult { return &runResult{metrics: map[string]float64{}} }

// record counts one measured child and reports whether it passed.
func (r *runResult) record(w workloadSpec, seed int64, s *sample, err error) bool {
	r.attempted++
	switch {
	case err != nil:
		r.failf("%v", err)
	case s.Check != "":
		r.failf("%s seed %d: output check failed: %s", w.name, seed, s.Check)
	default:
		return true
	}
	return false
}

func (r *runResult) failf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "scfbench: "+format+"\n", args...)
}

// spawn runs one child process of this binary and returns the sample it
// printed. The context kills a child that outlives the run's deadline;
// Run waits for it to exit either way.
func spawn(ctx context.Context, w workloadSpec, seed int64, mode string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", envT0, time.Now().UnixNano()))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s child, seed %d: %w", w.name, mode, seed, err)
	}
	out := strings.TrimSpace(stdout.String())
	var s sample
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &s); err != nil {
		return nil, fmt.Errorf("%s %s child, seed %d: bad sample: %w", w.name, mode, seed, err)
	}
	return &s, nil
}

// measureRun is one untraced run: a pass over the workload's inputs, one
// fresh child each, repeated while another pass fits in budget. Each
// end-to-end metric is the mean over inputs of that input's median.
func measureRun(ctx context.Context, w workloadSpec, seed int64, budget time.Duration) *runResult {
	r := newRunResult()
	start := time.Now()
	perInput := make([][]*sample, w.inputs)
	var setups []float64
	for {
		passStart := time.Now()
		for j := 0; j < w.inputs; j++ {
			s, err := spawn(ctx, w, inputSeed(seed, j), "run")
			if r.record(w, inputSeed(seed, j), s, err) {
				perInput[j] = append(perInput[j], s)
				setups = append(setups, s.Setup)
			}
		}
		// Stop when another pass as long as this one would overrun.
		if r.failed > 0 || ctx.Err() != nil || time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	for j := 0; len(setups) < minSetupSamples && r.failed == 0; j++ {
		s, err := spawn(ctx, w, inputSeed(seed, j%w.inputs), "setup")
		if err != nil {
			r.attempted++
			r.failf("%v", err)
			break
		}
		setups = append(setups, s.Setup)
	}
	if !w.pipeline {
		// The identify products must not depend on the run: every child
		// of one input reproduces the first one's digest.
		for j, ss := range perInput {
			for _, s := range ss[min(1, len(ss)):] {
				if s.Digest != ss[0].Digest {
					r.failf("%s seed %d: Table 2 differs between runs", w.name, inputSeed(seed, j))
				}
			}
		}
	}

	fields := []struct {
		name string
		get  func(*sample) float64
	}{
		{"wall_s", func(s *sample) float64 { return s.Wall }},
		{"cpu_s", func(s *sample) float64 { return s.CPU }},
		{"alloc_mb", func(s *sample) float64 { return s.AllocMB }},
		{"peak_rss_mb", func(s *sample) float64 { return s.PeakRSS }},
	}
	for _, f := range fields {
		var medians, all []float64
		for _, ss := range perInput {
			var vals []float64
			for _, s := range ss {
				vals = append(vals, f.get(s))
			}
			if len(vals) > 0 {
				medians = append(medians, median(vals))
			}
			all = append(all, vals...)
		}
		r.metrics[f.name] = mean(medians)
		r.summary = append(r.summary, summaryLine(f.name, r.metrics[f.name], all, len(medians)))
	}
	r.metrics["setup_s"] = median(setups)
	r.summary = append(r.summary, summaryLine("setup_s", r.metrics["setup_s"], setups, 1))
	return r
}

func summaryLine(name string, value float64, samples []float64, inputs int) string {
	q1, q3 := quartiles(samples)
	return fmt.Sprintf("# %-12s %12.6f  q1 %12.6f  q3 %12.6f  n=%d over %d input(s)", name, value, q1, q3, len(samples), inputs)
}

// tracedRun is one untraced child and one traced child on the run's first
// input. The per-layer metrics come from the traced child alone;
// trace.overhead_s is its wall time minus the untraced child's.
func tracedRun(ctx context.Context, w workloadSpec, seed int64) *runResult {
	r := newRunResult()
	in := inputSeed(seed, 0)
	u, err := spawn(ctx, w, in, "run")
	untracedOK := r.record(w, in, u, err)
	t, err := spawn(ctx, w, in, "traced")
	if r.record(w, in, t, err) {
		for k, v := range t.Layers {
			r.metrics[k] = v
		}
		if untracedOK {
			r.metrics["trace.overhead_s"] = t.Wall - u.Wall
		}
		r.summary = append(r.summary, fmt.Sprintf("# traced wall_s %.6f; spans in %s", t.Wall, traceFile(w, in)))
	}
	r.metrics["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	return r
}
