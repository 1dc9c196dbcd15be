// Command scfbench is the repository's whole-run benchmark. It drives the
// measurement pipeline (core.RunContext) and the PDNS feed
// (workload.Generate + workload.AggregateParallelCkpt + internal/analysis)
// through their public entry points and reports, per workload:
//
//   - with --trace 0, the end-to-end cost a user of the system sees: wall
//     time, CPU time, bytes allocated, peak RSS and set-up time, each the
//     median over fresh child processes;
//   - with --trace 1, one extra traced run with a fresh trace, registry and
//     event-log sink, followed by a pass that times each layer's public
//     functions on the same inputs: the per-stage and per-layer breakdown.
//
// Everything is measured from outside the program: timing calls into each
// layer, reading the spans and counters the program already records, and
// sampling getrusage at stage boundaries through the event log's sink.
//
// Usage:
//
//	scfbench --workload golden --seed 1 --seconds 15 --trace 0
//	scfbench --steady 10 --seconds 15 [--workload feed]
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it stamp the
// environment and give each metric's quartiles and sample count. --steady N
// runs every workload (or the one named) N times under each of two seed
// sets and prints each end-to-end metric's two medians and spreads against
// the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// metricSpec names one reported metric with its unit and the direction in
// which it improves. The lists below are the contract BENCHMARK.json
// repeats; --steady refuses to run when the two disagree.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// workloadSpec is one set of inputs. A run measures `inputs` distinct
// substrate seeds derived from --seed, each in its own child process, and
// reports the mean over inputs of each input's median: seed-to-seed
// variation in how many functions stall the prober is the largest source
// of spread on the pipeline workloads, and averaging inputs damps it.
type workloadSpec struct {
	name     string
	inputs   int
	pipeline bool // core.RunContext; otherwise the PDNS feed alone
	skipC2   bool // pipeline without the C2 fingerprint sweep
	corrupt  bool // feed with fault.Heavy() corruption as the mutate hook
}

var workloads = []workloadSpec{
	// Probe stalls and TLS probing dominate; identify is under 2%.
	{name: "golden", inputs: 2, pipeline: true, skipC2: true},
	// ~210k short plain-TCP connections: CPU-bound on kernel sockets.
	{name: "c2-sweep", inputs: 1, pipeline: true},
	// Identification alone: emission, aggregation, resolver, analysis.
	{name: "feed", inputs: 1},
	// The same feed through the scalar record path with 2% corruption.
	{name: "feed-corrupt", inputs: 1, corrupt: true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inputSeed derives the substrate seed of input j from the run's --seed.
// Input 0 is --seed itself, so the golden artifact check applies to
// --seed 1; the stride keeps the inputs of nearby run seeds disjoint.
func inputSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

func main() {
	var (
		wname   = flag.String("workload", "", "workload: golden, c2-sweep, feed or feed-corrupt")
		seed    = flag.Int64("seed", 1, "workload seed (>= 1); seed 1 also checks the golden artifacts")
		seconds = flag.Int("seconds", 15, "measure for this many seconds (at least one pass over the inputs)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		steady  = flag.Int("steady", 0, "steadiness mode: run each workload N times under two seed sets")
		child   = flag.String("child", "", "internal: run one measured child process (run, setup or traced)")
	)
	flag.Parse()
	if *child != "" {
		os.Exit(childMain(*child, *wname, *seed))
	}
	if *steady > 0 {
		os.Exit(steadyMain(*steady, *seconds, *wname))
	}
	w, ok := lookupWorkload(*wname)
	if !ok || *seed < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "scfbench: need --workload (one of %s), --seed >= 1, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := checkSources(); err != nil {
		fmt.Fprintln(os.Stderr, "scfbench:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	fmt.Println(envStamp())
	var r *runResult
	if *trace == 1 {
		r = tracedRun(ctx, w, *seed)
	} else {
		r = measureRun(ctx, w, *seed, time.Duration(*seconds)*time.Second)
	}
	for _, line := range r.summary {
		fmt.Println(line)
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	printResult(r, specs)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// checkSources fails fast when the benchmark is not run from the root of a
// full checkout: the golden artifacts it checks against must be there.
func checkSources() error {
	if _, err := os.Stat(goldenDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// envStamp records what the numbers were measured on. The edge always runs
// on loopback inside the measured process; no run touches a real network.
func envStamp() string {
	goVersion, revision := obs.BuildInfo()
	return fmt.Sprintf("# env nproc=%d GOMAXPROCS=%d go=%s rev=%s edge=loopback-only",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), goVersion, revision)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the contract's last line: every metric of specs, by
// name with its unit. A metric the run could not measure reads 0.
func printResult(r *runResult, specs []metricSpec) {
	metrics := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
