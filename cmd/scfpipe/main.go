// Command scfpipe runs the paper's full measurement pipeline end to end on
// the synthetic substrate and prints the summary plus every table and
// figure of the evaluation, followed by the per-stage timing breakdown.
//
// Usage:
//
//	scfpipe -seed 1 -scale 0.01
//	scfpipe -scale 0.05 -skip-c2             # faster: skip the fingerprint sweep
//	scfpipe -probe-concurrency 128           # widen the probe sweep
//	scfpipe -metrics-addr :6060              # live JSON metrics + trace + pprof
//	scfpipe -chaos heavy                     # deterministic fault injection
//	scfpipe -chaos light,seed=7 -probe-retries 3
//	scfpipe -run-dir .runs                   # archive the run for scfruns
//	scfpipe -no-archive                      # skip the run archive
//	scfpipe -health-strict                   # exit 1 if an SLO health rule fires
//	scfpipe -resume                          # resume an interrupted run
//	scfpipe -chaos crash=probe               # seeded crash injection (testing)
//	scfpipe -profile                         # archive per-stage pprof profiles
//	scfpipe -sample-interval 250ms           # timeline windows + per-stage resources
//
// With -chaos the run injects a seeded, reproducible fault schedule (DNS
// failures, connection resets, flapping and truncating endpoints, latency
// spikes, PDNS feed corruption) and reports the degradations it absorbed;
// the schedule depends only on (chaos seed, FQDN), never on -workers.
//
// Every run evaluates the default SLO health rules (per-provider probe error
// rate and p99 latency, breaker opens, feed drop rate) over
// rolling windows while it executes — every 500ms, or every
// -sample-interval when set; firings land in the event log as "health"
// events and the final per-provider health table prints after the
// degradation report. -health-strict turns any firing into a non-zero exit.
//
// With -metrics-addr the run serves live introspection while it executes:
// /metrics (JSON metric snapshot), /metrics.prom (the same registry in
// Prometheus text exposition format, labeled vectors included),
// /trace (the stage span tree so far),
// /trace.json (Chrome trace-event export for Perfetto / chrome://tracing),
// /events (the structured event log as JSONL), and /debug/pprof/ (standard
// profiles).
//
// Every completed run is archived under <run-dir>/<run-id>/ (default
// .runs, or $SCF_RUN_DIR; disable with -no-archive), so every benchmark
// entry has a provenance record: summary + calibration shares, the
// rendered tables/figures with SHA-256 fingerprints, timings.json (stage
// wall/CPU, final metrics, health), the event log, and the Chrome trace
// rendered from it. The run ID derives from seed+config, so re-running the
// same experiment overwrites its slot. `scfruns list|show|diff|gate` reads
// these archives.
//
// Archived runs also checkpoint their progress under
// <run-dir>/<run-id>/checkpoints/: a durable snapshot lands at every stage
// boundary (-no-archive turns checkpointing off with the archive). After a
// crash or an interrupt, re-running the same configuration with -resume
// restores the newest valid checkpoint, skips the completed stages, re-runs
// the stage the run died in, and produces artifacts byte-identical to an
// uninterrupted run. The first SIGINT/SIGTERM cancels the run cleanly: the
// emission, probe and C2 loops stop, the newest boundary checkpoint stays
// the resume point, and the event log (with the cancellation recorded on
// the interrupted stage) is written next to the checkpoints with a resume
// hint; a second signal aborts immediately.
//
// With -profile the run records continuous profiles: one run-wide CPU
// profile whose samples carry pprof labels for the executing stage (and the
// shard index inside parallel aggregation), plus heap/allocs/block/mutex
// snapshots at every stage boundary. Profiles land on the archive's
// machine-varying side under profiles/ — toggling -profile never moves the
// run ID or any artifact fingerprint. Read them with `go tool pprof`: for
// example `go tool pprof -top .runs/<id>/profiles/pipeline-cpu.pb.gz`, or
// `-tags` on the same file for the stage attribution.
//
// With -sample-interval the run's observer samples on that interval, and
// each sample does three jobs at once: the health rules above, per-stage
// runtime resource high-water marks (heap, RSS, goroutines, GC pauses), and
// one telemetry timeline window — the metric registry's per-window deltas
// (counters, labeled vectors, histogram window quantiles), gauge
// last-values, the health breaches that sample fired, its resource reading,
// and seeded-deterministic anomaly annotations (error-class activations and
// EWMA drift). The timeline is archived as timeline.jsonl and the resource
// table in timings.json, both on the machine-varying side — enabling
// sampling never moves the run ID or an artifact fingerprint — and, when
// -metrics-addr is set, the windows stream live to the /dash dashboard
// over SSE. Inspect archived timelines with `scfruns timeline`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/runs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scfpipe: ")
	var (
		seed         = flag.Int64("seed", 1, "substrate seed")
		scale        = flag.Float64("scale", 0.01, "fraction of the paper's population")
		skipC2       = flag.Bool("skip-c2", false, "skip the C2 fingerprint sweep")
		cache        = flag.Bool("cache-model", false, "model resolver caching in PDNS counts")
		timeout      = flag.Duration("probe-timeout", 2*time.Second, "per-request probe timeout")
		probeConc    = flag.Int("probe-concurrency", 0, "max in-flight probes (0 = default 32)")
		workers      = flag.Int("workers", 0, "CPU-bound fan-out for generation, PDNS emission+aggregation, sanitisation, and classification (0 = GOMAXPROCS; results are identical for every value)")
		metricsAddr  = flag.String("metrics-addr", "", "serve live JSON metrics, trace, events, and pprof on this address (e.g. :6060)")
		chaos        = flag.String("chaos", "", "fault-injection profile: none, light, or heavy, optionally ,seed=N (default: $SCF_CHAOS or none)")
		retries      = flag.Int("probe-retries", 0, "extra probe attempts per scheme after connection failures (0 = auto: 2 under chaos; negative = off)")
		breaker      = flag.Int("breaker-threshold", 0, "consecutive failures opening a provider's probe circuit (0 = auto: 50 under chaos; negative = off)")
		sampleEvery  = flag.Duration("sample-interval", 0, "sample the run on this interval: per-stage runtime resources (heap, RSS, goroutines, GC pauses) and windowed telemetry (metric deltas, anomaly annotations, health breaches) into timeline.jsonl; 0 evaluates health only, every 500ms")
		runDir       = flag.String("run-dir", "", "archive the run under this directory (default: $SCF_RUN_DIR or .runs)")
		noArchive    = flag.Bool("no-archive", false, "do not archive the run")
		healthStrict = flag.Bool("health-strict", false, "exit non-zero when any SLO health rule fired during the run")
		resume       = flag.Bool("resume", false, "resume the interrupted run with this configuration from its newest checkpoint")
		profile      = flag.Bool("profile", false, "record per-stage pprof profiles (CPU with stage/shard labels, heap/allocs/block/mutex at stage boundaries) into the run archive's profiles/ directory")
	)
	flag.Parse()

	var chaosProf fault.Profile
	if *chaos != "" {
		var err error
		if chaosProf, err = fault.ParseProfile(*chaos); err != nil {
			log.Fatal(err)
		}
	}

	// The run root is resolved before the pipeline starts: checkpoints live
	// inside the (future) archive slot, so the checkpoint writer needs it even
	// though the archive itself is only written at the end.
	root := *runDir
	if root == "" {
		root = os.Getenv("SCF_RUN_DIR")
	}
	if root == "" {
		root = ".runs"
	}
	ckptDir := root
	if *noArchive {
		ckptDir = ""
	}
	if *resume && ckptDir == "" {
		log.Fatal("-resume needs checkpointing: drop -no-archive")
	}

	// Two-phase interrupt handling: the first SIGINT/SIGTERM cancels the run
	// context so the interrupted stage stops and the event log gets written;
	// a second signal aborts on the spot.
	ctx, cancel := context.WithCancel(obsContext())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("received %v: stopping cleanly (send again to abort)", s)
		cancel()
		s = <-sigs
		log.Printf("received %v again: aborting", s)
		os.Exit(130)
	}()

	// The timeline stream is created here, not inside core, so the /dash
	// dashboard can subscribe to it before the pipeline starts; the run's
	// observer publishes each window into it via Config.Timeline.
	var tl *timeline.Stream
	if *sampleEvery > 0 {
		tl = timeline.NewStream()
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, metrics, trace, events, timeline.DashMounts(tl)...)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving metrics on http://%s/metrics (dash: /dash; trace: /trace, /trace.json; events: /events; pprof: /debug/pprof/)", srv.Addr())
	}

	res, err := core.RunContext(ctx, core.Config{
		Seed:             *seed,
		Scale:            *scale,
		SkipC2Scan:       *skipC2,
		CacheModel:       *cache,
		ProbeTimeout:     *timeout,
		ProbeConcurrency: *probeConc,
		Workers:          *workers,
		Chaos:            chaosProf,
		ProbeRetries:     *retries,
		BreakerThreshold: *breaker,
		Metrics:          metrics,
		SampleInterval:   *sampleEvery,
		CheckpointDir:    ckptDir,
		Resume:           *resume,
		Profile:          *profile,
		Timeline:         tl,
	})
	exitCode := 0
	// Only completed runs are archived in full: a partial run would overwrite
	// its config's slot with truncated calibration/artifacts. An interrupted
	// checkpointing run still leaves its event log next to the checkpoints
	// so `scfruns show` has something to display, and prints the command
	// that resumes it.
	if res != nil && err == nil && !*noArchive {
		arch := res.BuildArchive("scfpipe", events)
		if dir, aerr := runs.Write(root, arch); aerr != nil {
			log.Print(aerr)
			exitCode = 1
		} else {
			log.Printf("archived run %s to %s", arch.Summary.ID, dir)
		}
	}
	if res != nil && err != nil && ckptDir != "" {
		if werr := writePartialEvents(filepath.Join(root, res.RunID())); werr != nil {
			log.Print(werr)
		}
		log.Printf("run %s interrupted; resume it by re-running the same configuration with -resume", res.RunID())
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(res.RenderSummary())
	fmt.Println(core.RenderTable1())
	fmt.Println(res.RenderTable2())
	fmt.Println(res.RenderTable3())
	fmt.Println(res.RenderFigure3())
	fmt.Println(res.RenderFigure4())
	fmt.Println(res.RenderFigure5())
	fmt.Println(res.RenderFigure6())
	fmt.Println(res.RenderFigure7())
	fmt.Println(res.RenderDisclosures())
	fmt.Println(res.RenderStageTimings())
	if deg := res.RenderDegradations(); deg != "" {
		fmt.Println(deg)
	}
	if ht := res.RenderHealth(); ht != "" {
		fmt.Println(ht)
	}
	if rt := res.RenderResources(); rt != "" {
		fmt.Println(rt)
	}
	if n := len(res.Timeline); n > 0 {
		log.Printf("timeline: %d windows, %d anomaly annotation(s) — inspect with `scfruns timeline %s`",
			n, timeline.AnomalyCount(res.Timeline), res.RunID())
	}
	fmt.Println(res.RenderMetrics())
	if *healthStrict && health.Fired(res.Health) {
		log.Print("health-strict: one or more SLO health rules fired")
		if exitCode == 0 {
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// Shared observability state: created up front so the introspection endpoint
// serves live data for the whole run, not a post-hoc copy, and so the event
// log covers the run from its first span to its last degradation record.
var (
	metrics = obs.NewRegistry()
	trace   = obs.NewTrace()
	events  = obs.NewEventLog()
)

// writePartialEvents writes the event log of an interrupted run into its
// archive slot dir, next to the checkpoints. It is the only record such a
// run leaves, so every failure names the path it was writing.
func writePartialEvents(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	path := filepath.Join(dir, runs.EventsFile)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	werr := events.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("events: %s: %w", path, werr)
	}
	return nil
}

func obsContext() context.Context {
	ctx := obs.ContextWithTrace(context.Background(), trace)
	return obs.ContextWithEventLog(ctx, events)
}
