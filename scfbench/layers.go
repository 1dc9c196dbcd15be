package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/workload"
)

// perLayer is every metric a traced run reports, grouped by the module it
// describes. A metric that does not apply to a workload (C2 on golden,
// probing on the feed) reads 0. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = []metricSpec{
	// Stages (internal/core spans; CPU from getrusage at stage boundaries).
	{"stage.substrate.wall_s", "s", "lower"},
	{"stage.identify.wall_s", "s", "lower"},
	{"stage.probe.wall_s", "s", "lower"},
	{"stage.sanitise.wall_s", "s", "lower"},
	{"stage.cluster.wall_s", "s", "lower"},
	{"stage.classify.wall_s", "s", "lower"},
	{"stage.c2-sweep.wall_s", "s", "lower"},
	{"stage.assess.wall_s", "s", "lower"},
	{"stage.disclosure.wall_s", "s", "lower"},
	{"stage.substrate.cpu_s", "s", "lower"},
	{"stage.substrate.sys_s", "s", "lower"},
	{"stage.identify.cpu_s", "s", "lower"},
	{"stage.identify.sys_s", "s", "lower"},
	{"stage.probe.cpu_s", "s", "lower"},
	{"stage.probe.sys_s", "s", "lower"},
	{"stage.c2-sweep.cpu_s", "s", "lower"},
	{"stage.c2-sweep.sys_s", "s", "lower"},
	{"stage.classify.self_s", "s", "lower"},
	// Substrate (internal/workload, internal/faas).
	{"workload.generate_s", "s", "lower"},
	{"workload.deploy_s", "s", "lower"},
	{"workload.functions", "count", "higher"},
	// Identify (internal/workload, internal/pdns, internal/dnssim, internal/analysis).
	{"workload.emit_s", "s", "lower"},
	{"pdns.aggregate_s", "s", "lower"},
	{"pdns.records", "count", "higher"},
	{"pdns.match_ratio", "ratio", "higher"},
	{"pdns.dropped", "count", "lower"},
	{"fault.corrupted", "count", "lower"},
	{"workload.shard_skew", "ratio", "lower"},
	{"dnssim.lookups", "count", "lower"},
	{"dnssim.cache_hit_ratio", "ratio", "higher"},
	{"analysis.s", "s", "lower"},
	// Probe (internal/probe).
	{"probe.targets", "count", "higher"},
	{"probe.requests_per_target", "ratio", "lower"},
	{"probe.reachable_ratio", "ratio", "higher"},
	{"probe.timeouts", "count", "lower"},
	{"probe.fallbacks", "count", "lower"},
	{"probe.dns_failures", "count", "lower"},
	{"probe.busy_s", "s", "lower"},
	{"probe.timeout_wait_s", "s", "lower"},
	{"probe.slot_occupancy", "ratio", "higher"},
	{"probe.request_p50_ms", "ms", "lower"},
	{"probe.request_p99_ms", "ms", "lower"},
	{"probe.class.https_ok.p50_ms", "ms", "lower"},
	{"probe.class.https_missing.p50_ms", "ms", "lower"},
	{"probe.class.http_fallback.p50_ms", "ms", "lower"},
	{"probe.class.timeout.p50_ms", "ms", "lower"},
	{"probe.class.dns.p50_ms", "ms", "lower"},
	// Edge (internal/faas gateway behind core's loopback listeners).
	{"faas.gateway_requests", "count", "lower"},
	{"faas.invocations", "count", "lower"},
	{"edge.serve_ns", "ns", "lower"},
	{"edge.serve_allocs", "allocs", "lower"},
	// C2 (internal/c2).
	{"c2.hosts", "count", "higher"},
	{"c2.probes", "count", "lower"},
	{"c2.conn_failures", "count", "lower"},
	{"c2.detections", "count", "higher"},
	{"c2.host_scan_p50_ms", "ms", "lower"},
	{"c2.host_scan_p99_ms", "ms", "lower"},
	// Content (internal/secrets, internal/content, internal/abuse).
	{"sanitise.docs", "count", "higher"},
	{"sanitise.content_rich", "count", "higher"},
	{"cluster.clusters", "count", "higher"},
	// The benchmark itself.
	{"trace.overhead_s", "s", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// cpuStages are the stages whose CPU the benchmark splits into user+sys.
var cpuStages = []string{"substrate", "identify", "probe", "c2-sweep"}

// tracedCtx is a traced child's fresh trace, registry and event log. The
// log streams every event to a stageClock as it is emitted.
type tracedCtx struct {
	reg   *obs.Registry
	trace *obs.Trace
	log   *obs.EventLog
	clock *stageClock
}

func newTracedCtx() *tracedCtx {
	clock := &stageClock{open: map[string]usage{}, spent: map[string]usage{}}
	tc := &tracedCtx{reg: obs.NewRegistry(), trace: obs.NewTrace(), log: obs.NewEventLog(), clock: clock}
	tc.log.SetSink(tc.clock)
	return tc
}

func (tc *tracedCtx) attach(ctx context.Context) context.Context {
	return obs.ContextWithEventLog(obs.ContextWithTrace(ctx, tc.trace), tc.log)
}

// stageClock is an event-log sink that samples getrusage whenever a stage
// or span opens or closes. The log calls it synchronously, under its own
// mutex, at the boundary itself. Stages run one after another, so the
// process-wide delta between a stage's start and end is that stage's CPU.
type stageClock struct {
	mu    sync.Mutex
	open  map[string]usage
	spent map[string]usage
}

func (c *stageClock) Write(p []byte) (int, error) {
	var e struct {
		Type string `json:"type"`
		Name string `json:"name"`
	}
	if json.Unmarshal(p, &e) != nil {
		return len(p), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Type {
	case obs.EventStageStart, obs.EventSpanStart:
		c.open[e.Name] = rusage()
	case obs.EventStageEnd, obs.EventSpanEnd:
		if at, ok := c.open[e.Name]; ok {
			now := rusage()
			c.spent[e.Name] = usage{user: now.user - at.user, sys: now.sys - at.sys}
		}
	}
	return len(p), nil
}

func (c *stageClock) get(name string) usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent[name]
}

// pipelineLayers derives the per-layer metrics of a traced pipeline run
// from its spans, registry and probe results, then times the substrate,
// edge and emission layers again on the same population. It writes the
// run's spans, with self times, to the trace file.
func pipelineLayers(c *childRun, tc *tracedCtx, res *core.Results, start, end time.Time) (map[string]float64, error) {
	L := map[string]float64{}
	snap := tc.reg.Snapshot()
	stages := map[string]obs.SpanRecord{}
	for _, rec := range res.Stages {
		stages[rec.Name] = rec
		for _, ch := range rec.Children {
			if ch.Name == "c2-sweep" {
				stages[ch.Name] = ch
			}
		}
	}
	for name, rec := range stages {
		L["stage."+name+".wall_s"] = seconds(rec.WallNS)
	}
	for _, name := range cpuStages {
		u := tc.clock.get(name)
		L["stage."+name+".cpu_s"] = (u.user + u.sys).Seconds()
		L["stage."+name+".sys_s"] = u.sys.Seconds()
	}
	pipeline := newSpan("pipeline", start, end, spansFromRecords(res.Stages)...)
	for _, sp := range pipeline.Children {
		if sp.Name == "classify" {
			L["stage.classify.self_s"] = seconds(sp.selfNS())
		}
	}

	identifyLayers(L, snap)
	var shardWall int64
	for _, ch := range stages["identify"].Children {
		shardWall = max(shardWall, ch.WallNS)
	}
	n := float64(len(res.ProbeResults))
	L["probe.targets"] = n
	L["probe.requests_per_target"] = ratio(float64(snap.Counters["probe_requests_total"]), n)
	L["probe.timeouts"] = float64(snap.Counters["probe_timeouts_total"])
	L["probe.fallbacks"] = float64(snap.Counters["probe_fallbacks_total"])
	L["probe.dns_failures"] = float64(snap.Counters["probe_dns_failures_total"])
	L["probe.reachable_ratio"] = ratio(float64(res.ProbeStats.Reachable), n)
	lat := snap.Histograms["probe_request_seconds"]
	L["probe.request_p50_ms"] = lat.Quantile(0.5) * 1e3
	L["probe.request_p99_ms"] = lat.Quantile(0.99) * 1e3
	L["faas.gateway_requests"] = float64(snap.Counters["gateway_requests_total"])
	L["faas.invocations"] = float64(snap.Counters["faas_invocations_total"])
	L["c2.hosts"] = float64(snap.Counters["c2_hosts_scanned_total"])
	L["c2.probes"] = float64(snap.Counters["c2_probes_total"])
	L["c2.conn_failures"] = float64(snap.Counters["c2_conn_failures_total"])
	L["c2.detections"] = float64(snap.Counters["c2_detections_total"])
	scan := snap.Histograms["c2_scan_seconds"]
	L["c2.host_scan_p50_ms"] = scan.Quantile(0.5) * 1e3
	L["c2.host_scan_p99_ms"] = scan.Quantile(0.99) * 1e3
	for i := range res.ProbeResults {
		if res.ProbeResults[i].Reachable {
			L["sanitise.docs"]++
		}
	}
	L["sanitise.content_rich"] = float64(res.ContentRich)
	L["cluster.clusters"] = float64(res.TotalClusters)

	// The layer pass: each layer's public entry point, timed alone.
	pass := &passTimer{}
	workers := res.Config.Workers
	pass.time("generate", func() {
		workload.Generate(workload.Config{Seed: c.seed, Scale: pipelineScale, Workers: workers})
	})
	platform := faas.NewPlatform()
	pass.time("deploy", func() { workload.Deploy(res.Population, platform, c2.DefaultDB()) })
	var err error
	pass.time("probe", func() {
		var results []probe.Result
		var elapsed []time.Duration
		var wall time.Duration
		results, elapsed, wall, err = probePass(context.Background(), res.Config, res.Population, platform, res.Population.ProbeTargets())
		probeTimings(L, results, elapsed, wall, res.Config.ProbeConcurrency)
	})
	if err != nil {
		return nil, err
	}
	pass.time("edge-serve", func() {
		L["edge.serve_ns"], L["edge.serve_allocs"] = edgeServe(platform, res.ProbeResults)
	})
	pass.time("emit", func() { err = emitPass(res.Population, workers, int64(L["pdns.records"])) })
	pass.time("analysis", func() {
		perFn := res.Aggregate.PerFunctionStats()
		analysis.Frequency(perFn)
		analysis.Lifespan(perFn, workload.Window())
		analysis.Table2(res.Aggregate)
	})
	if err != nil {
		return nil, err
	}
	L["workload.generate_s"] = pass.seconds("generate")
	L["workload.deploy_s"] = pass.seconds("deploy")
	L["workload.functions"] = float64(len(res.Population.Functions))
	L["workload.emit_s"] = pass.seconds("emit")
	L["pdns.aggregate_s"] = seconds(shardWall) - L["workload.emit_s"]
	L["analysis.s"] = pass.seconds("analysis")
	return L, writeTrace(c, start, pipeline, pass.spans)
}

// feedLayers is pipelineLayers for the feed workloads: generation was the
// child's set-up, the timed section was aggregation plus analysis.
func feedLayers(c *childRun, tc *tracedCtx, pop *workload.Population, snap obs.Snapshot, generate time.Duration, start, aggregated, analysed time.Time) (map[string]float64, error) {
	L := map[string]float64{}
	identifyLayers(L, snap)
	pass := &passTimer{}
	pass.time("deploy", func() { workload.Deploy(pop, faas.NewPlatform(), c2.DefaultDB()) })
	var err error
	pass.time("emit", func() { err = emitPass(pop, runtime.NumCPU(), int64(L["pdns.records"])) })
	if err != nil {
		return nil, err
	}
	L["workload.generate_s"] = generate.Seconds()
	L["workload.deploy_s"] = pass.seconds("deploy")
	L["workload.functions"] = float64(len(pop.Functions))
	L["workload.emit_s"] = pass.seconds("emit")
	L["pdns.aggregate_s"] = aggregated.Sub(start).Seconds() - L["workload.emit_s"]
	L["analysis.s"] = analysed.Sub(aggregated).Seconds()
	root := newSpan("feed", start, analysed,
		newSpan("aggregate", start, aggregated, spansFromRecords(tc.trace.Records())...),
		newSpan("analysis", aggregated, analysed))
	return L, writeTrace(c, start, root, pass.spans)
}

// identifyLayers reads the identify path's counters: records scanned and
// matched, validation drops, injected corruption, shard balance and the
// resolver's lookups.
func identifyLayers(L map[string]float64, snap obs.Snapshot) {
	scanned := float64(snap.Counters["pdns_records_scanned_total"])
	L["pdns.records"] = scanned
	L["pdns.match_ratio"] = ratio(float64(snap.Counters["pdns_records_matched_total"]), scanned)
	L["pdns.dropped"] = float64(snap.Counters["pdns_records_dropped_total"])
	L["fault.corrupted"] = float64(snap.Counters["fault_corrupt_records_total"])
	var shardMax, shardSum float64
	shards := snap.CounterVecs["workload_emit_records_total"].Series
	for _, v := range shards {
		shardMax = max(shardMax, float64(v))
		shardSum += float64(v)
	}
	if len(shards) > 0 {
		L["workload.shard_skew"] = ratio(shardMax, shardSum/float64(len(shards)))
	}
	L["dnssim.lookups"] = float64(snap.CounterVecs["dnssim_lookups_total"].SumBy("", nil)[""])
	hits := float64(snap.Counters["dnssim_lookup_cache_hits_total"])
	L["dnssim.cache_hit_ratio"] = ratio(hits, hits+float64(snap.Counters["dnssim_lookup_cache_misses_total"]))
}

// probeClass sorts a probe result into the target classes the prober
// treats differently; "" is a result of none of them.
func probeClass(r *probe.Result) string {
	switch {
	case r.Failure == probe.FailDNS:
		return "dns"
	case r.Failure == probe.FailTimeout:
		return "timeout"
	case !r.Reachable:
		return ""
	case !r.HTTPS:
		return "http_fallback"
	case r.Status >= 200 && r.Status < 300:
		return "https_ok"
	case r.Status == http.StatusForbidden || r.Status == http.StatusNotFound:
		return "https_missing"
	}
	return ""
}

// probeTimings derives the prober's busy time, time spent waiting out
// timeouts, slot occupancy and per-class latency from the probe pass's
// per-target timings.
func probeTimings(L map[string]float64, results []probe.Result, elapsed []time.Duration, wall time.Duration, concurrency int) {
	var busy, timeoutWait time.Duration
	byClass := map[string][]float64{}
	for i := range results {
		r := &results[i]
		busy += elapsed[i]
		if r.Failure == probe.FailTimeout {
			timeoutWait += elapsed[i]
		}
		if cls := probeClass(r); cls != "" {
			byClass[cls] = append(byClass[cls], float64(elapsed[i])/1e6)
		}
	}
	L["probe.busy_s"] = busy.Seconds()
	L["probe.timeout_wait_s"] = timeoutWait.Seconds()
	L["probe.slot_occupancy"] = ratio(busy.Seconds(), float64(concurrency)*wall.Seconds())
	for cls, ms := range byClass {
		L["probe.class."+cls+".p50_ms"] = median(ms)
	}
}

// edgeServeTargets and edgeServeRounds size the gateway pass: up to 64
// targets of each class, each served 20 times.
const (
	edgeServeTargets = 64
	edgeServeRounds  = 20
)

// edgeServe times faas.Gateway.ServeHTTP in-process, on a fresh
// httptest.ResponseRecorder per request, for the target classes the
// gateway answers without stalling. It returns the mean nanoseconds and
// heap allocations per request; the allocations include the gateway's
// per-request counter-name formatting.
func edgeServe(platform *faas.Platform, results []probe.Result) (nsPerReq, allocsPerReq float64) {
	gw := faas.NewGateway(platform)
	gw.Instrument(obs.NewRegistry())
	gw.Clock = workload.DeployWindowClock()
	perClass := map[string]int{}
	var reqs []*http.Request
	for i := range results {
		cls := probeClass(&results[i])
		if cls == "" || cls == "timeout" || perClass[cls] >= edgeServeTargets {
			continue
		}
		perClass[cls]++
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "http://"+results[i].FQDN+"/", nil))
	}
	if len(reqs) == 0 {
		return 0, 0
	}
	var spent time.Duration
	var mallocs uint64
	for round := 0; round < edgeServeRounds; round++ {
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range recs {
			recs[i] = httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		for i, req := range reqs {
			gw.ServeHTTP(recs[i], req)
		}
		spent += time.Since(t)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	served := float64(len(reqs) * edgeServeRounds)
	return float64(spent.Nanoseconds()) / served, float64(mallocs) / served
}

// emitPass runs workload.EmitPDNSParallelBatch into sinks that only count
// rows: the cost of generating the feed without aggregating it. The count
// must equal the rows the timed run's aggregators scanned.
func emitPass(pop *workload.Population, workers int, want int64) error {
	counts := make([]int64, workers)
	sinks := make([]func(*pdns.RecordBatch) error, workers)
	for i := range sinks {
		sinks[i] = func(b *pdns.RecordBatch) error {
			counts[i] += int64(b.Len())
			return nil
		}
	}
	if err := workload.EmitPDNSParallelBatch(pop, dnssim.NewResolver(), workers, 0, sinks...); err != nil {
		return fmt.Errorf("emit pass: %w", err)
	}
	var rows int64
	for _, n := range counts {
		rows += n
	}
	if rows != want {
		return fmt.Errorf("emit pass produced %d rows, the timed run scanned %d", rows, want)
	}
	return nil
}

// passTimer times the layer pass's calls, one span each.
type passTimer struct{ spans []*span }

func (p *passTimer) time(name string, fn func()) {
	start := time.Now()
	fn()
	p.spans = append(p.spans, newSpan("layer."+name, start, time.Now()))
}

func (p *passTimer) seconds(name string) float64 {
	for _, sp := range p.spans {
		if sp.Name == "layer."+name {
			return seconds(sp.WallNS)
		}
	}
	return 0
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
