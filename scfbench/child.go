package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/runs"
	"repro/internal/workload"
)

const (
	// goldenDir holds the committed artifacts of the golden configuration
	// (seed 1, scale 0.01, chaos none, skip-c2). They are worker-invariant.
	goldenDir = "internal/runs/testdata/golden/artifacts"
	// pipelineScale is the golden configuration's population scale.
	pipelineScale = 0.01
	// feedScale makes one feed run last about a second of emit+aggregate
	// on a 2-core machine: ~645k PDNS records.
	feedScale = 0.1
)

// sample is what one child process measured, printed as its last line.
type sample struct {
	Setup   float64            `json:"setup_s"`
	Wall    float64            `json:"wall_s"`
	CPU     float64            `json:"cpu_s"`
	AllocMB float64            `json:"alloc_mb"`
	PeakRSS float64            `json:"peak_rss_mb"`
	Check   string             `json:"check,omitempty"`  // why the output check failed
	Digest  string             `json:"digest,omitempty"` // feed: fingerprint of the identify products
	Layers  map[string]float64 `json:"layers,omitempty"` // traced children only
}

type childRun struct {
	w    workloadSpec
	seed int64
	mode string // run, setup or traced
	t0   time.Time
}

// childMain is one fresh process: set up, run the timed section once,
// check its output, and print the sample. Every workload runs with
// Workers = GOMAXPROCS = nproc, checkpointing off and no archive.
func childMain(mode, wname string, seed int64) int {
	w, ok := lookupWorkload(wname)
	t0, err := strconv.ParseInt(os.Getenv(envT0), 10, 64)
	if !ok || err != nil || (mode != "run" && mode != "setup" && mode != "traced") {
		fmt.Fprintln(os.Stderr, "scfbench: child needs --workload, --child run|setup|traced and "+envT0)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	c := &childRun{w: w, seed: seed, mode: mode, t0: time.Unix(0, t0)}
	var s *sample
	if w.pipeline {
		s, err = c.pipeline()
	} else {
		s, err = c.feed()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scfbench: %s seed %d: %v\n", w.name, seed, err)
		return 1
	}
	s.PeakRSS = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "scfbench:", err)
		return 1
	}
	return 0
}

// pipeline times one core.RunContext call at the golden configuration,
// with or without the C2 sweep.
func (c *childRun) pipeline() (*sample, error) {
	cfg := core.Config{
		Seed:    c.seed,
		Scale:   pipelineScale,
		Workers: runtime.NumCPU(),
		// Pinned so SCF_CHAOS in the environment cannot leak in.
		Chaos:      fault.None(),
		SkipC2Scan: c.w.skipC2,
	}
	ctx := context.Background()
	var tc *tracedCtx
	if c.mode == "traced" {
		tc = newTracedCtx()
		cfg.Metrics = tc.reg
		ctx = tc.attach(ctx)
	}
	s := &sample{Setup: time.Since(c.t0).Seconds()}
	if c.mode == "setup" {
		return s, nil
	}
	m := startMeter()
	res, err := core.RunContext(ctx, cfg)
	end := m.stop(s)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	s.Check = checkPipeline(c.w, c.seed, res)
	if tc != nil {
		s.Layers, err = pipelineLayers(c, tc, res, m.start, end)
	}
	return s, err
}

// checkPipeline returns why res fails the benchmark's output check, or "".
func checkPipeline(w workloadSpec, seed int64, res *core.Results) string {
	cal := res.Calibration()
	for _, t := range runs.PaperTargets {
		if v := cal[t.Name]; !t.Contains(v) {
			return fmt.Sprintf("calibration %s = %.4f outside [%g, %g]", t.Name, v, t.Lo, t.Hi)
		}
	}
	if !w.skipC2 && len(res.C2Detections) == 0 {
		return "the C2 sweep found no relay"
	}
	if w.skipC2 && seed == 1 {
		for name, got := range res.BuildArchive("scfbench", nil).Artifacts {
			want, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				return err.Error()
			}
			same := string(want) == got
			if name == "disclosures.txt" {
				// The committed file predates disclosure.Build's provider
				// tie-break, which fixed the order of equal-count rows; the
				// rows themselves are unchanged, so compare them as a set.
				same = sortedLines(string(want)) == sortedLines(got)
			}
			if !same {
				return name + " differs from the golden artifact"
			}
		}
	}
	return ""
}

func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// feed times PDNS identification alone: emission and aggregation through
// workload.AggregateParallelCkpt, then the analysis the identify stage
// derives from the aggregate. Generating the population is set-up.
func (c *childRun) feed() (*sample, error) {
	workers := runtime.NumCPU()
	reg := obs.NewRegistry()
	ctx := context.Background()
	var tc *tracedCtx
	if c.mode == "traced" {
		tc = newTracedCtx()
		reg = tc.reg
		ctx = tc.attach(ctx)
	}
	genStart := time.Now()
	pop := workload.Generate(workload.Config{Seed: c.seed, Scale: feedScale, Workers: workers})
	generate := time.Since(genStart)
	resolver := dnssim.NewResolver()
	resolver.Instrument(reg)
	var mutate []func(*pdns.Record)
	if c.w.corrupt {
		inj := fault.New(fault.Heavy().WithSeed(c.seed))
		inj.Instrument(reg)
		mutate = append(mutate, func(r *pdns.Record) { inj.CorruptRecord(r) })
	}
	s := &sample{Setup: time.Since(c.t0).Seconds()}
	if c.mode == "setup" {
		return s, nil
	}

	m := startMeter()
	agg, err := workload.AggregateParallelCkpt(ctx, pop, resolver, nil, workers, reg, nil, nil, mutate...)
	if err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	aggregated := time.Now()
	perFn := agg.PerFunctionStats()
	table2 := analysis.Table2(agg)
	freq := analysis.Frequency(perFn)
	life := analysis.Lifespan(perFn, workload.Window())
	analysed := m.stop(s)

	s.Digest = runs.Fingerprint(fmt.Sprintf("%+v\n%+v\n%+v", table2, freq, life))
	snap := reg.Snapshot()
	s.Check = checkFeed(c.w, agg, snap)
	if tc != nil {
		s.Layers, err = feedLayers(c, tc, pop, snap, generate, m.start, aggregated, analysed)
	}
	return s, err
}

// checkFeed returns why the feed run fails its output check, or "": every
// corrupted row must be dropped by validation, and a clean feed drops none.
func checkFeed(w workloadSpec, agg *pdns.Aggregate, snap obs.Snapshot) string {
	dropped := snap.Counters["pdns_records_dropped_total"]
	corrupted := snap.Counters["fault_corrupt_records_total"]
	switch {
	case agg.Scanned == 0:
		return "the feed produced no records"
	case w.corrupt && (corrupted == 0 || dropped != corrupted):
		return fmt.Sprintf("dropped %d rows for %d corrupted", dropped, corrupted)
	case !w.corrupt && dropped != 0:
		return fmt.Sprintf("a clean feed dropped %d rows", dropped)
	}
	return ""
}

// meter measures one timed section: wall time, process CPU (user+sys from
// getrusage) and bytes allocated (MemStats.TotalAlloc).
type meter struct {
	start time.Time
	cpu   usage
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: rusage(), alloc: ms.TotalAlloc, start: time.Now()}
}

// stop records the section into s and returns the instant it ended.
func (m meter) stop(s *sample) time.Time {
	end := time.Now()
	wall := end.Sub(m.start)
	cpu := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Wall = wall.Seconds()
	s.CPU = (cpu.user + cpu.sys - m.cpu.user - m.cpu.sys).Seconds()
	s.AllocMB = float64(ms.TotalAlloc-m.alloc) / 1e6
	return end
}

// usage is the process's cumulative user and system CPU time.
type usage struct{ user, sys time.Duration }

func rusage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
