// Package core orchestrates the paper's end-to-end measurement pipeline:
//
//	identify (PDNS regex filter + aggregation, §3.2)
//	→ probe (HTTPS-first parameter-free GETs, §3.3)
//	→ sanitise (sensitive-data scan + salted-MD5 anonymisation, §3.4/App. A)
//	→ cluster (TF-IDF + average-linkage agglomerative clustering, §3.4)
//	→ classify (four abuse scenarios / eight cases, §5; C2 via fingerprints)
//	→ assess (threat-intelligence coverage, §5.5)
//
// Because the study's inputs are gated, the pipeline runs against the
// synthetic substrates of internal/workload, internal/dnssim, and
// internal/faas — but every stage consumes only the interfaces a production
// deployment would (PDNS records, HTTP endpoints, TCP sockets), so the
// pipeline code itself is substrate-agnostic.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/checkpoint"
	"repro/internal/content"
	"repro/internal/disclosure"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/lazyrand"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/prof"
	"repro/internal/providers"
	"repro/internal/runs"
	"repro/internal/secrets"
	"repro/internal/ti"
	"repro/internal/workload"
)

// Config parameterises one pipeline run.
type Config struct {
	// Seed and Scale configure the synthetic substrate (see workload).
	Seed  int64
	Scale float64
	// CacheModel routes invocation counts through the resolver-cache model.
	CacheModel bool

	// Workers bounds the CPU-bound fan-out: substrate generation, PDNS
	// emission+aggregation, sanitisation, and abuse classification all
	// shard across this many goroutines (<= 0 selects GOMAXPROCS). Results
	// are bit-identical for every value — parallelism only buys wall-clock
	// time, never determinism.
	Workers int

	// ClusterThreshold is the dendrogram cut distance (paper: 0.1).
	ClusterThreshold float64
	// MaxClusterDocs caps the number of documents clustered per content
	// type (clustering is O(n²) in memory). 0 selects the default cap of
	// 4000; a negative value disables the cap entirely.
	MaxClusterDocs int

	// ProbeConcurrency bounds in-flight probes; ProbeTimeout bounds each
	// request (the simulation shortens the paper's 60s).
	ProbeConcurrency int
	ProbeTimeout     time.Duration

	// Chaos selects the fault-injection profile for the run. The zero
	// profile defers to the SCF_CHAOS environment variable (so `make
	// chaos` exercises the whole suite); fault.None() disables injection
	// explicitly. A profile without a pinned seed inherits Seed, so fault
	// schedules are as reproducible as the substrate itself.
	Chaos fault.Profile
	// ProbeRetries is how many extra attempts each probe scheme gets after
	// a connection-class failure. 0 selects the default: 2 under an
	// enabled chaos profile, none otherwise (keeping chaos-free runs
	// byte-identical to the seed behavior).
	ProbeRetries int
	// ProbeRetryBackoff is the base backoff before a probe retry; defaults
	// to ProbeTimeout/20 so a full retry ladder stays well inside a
	// handful of probe budgets.
	ProbeRetryBackoff time.Duration
	// BreakerThreshold is how many consecutive endpoint failures open a
	// provider's probe circuit. 0 selects the default (50 under chaos,
	// disabled otherwise); negative disables the breaker outright.
	BreakerThreshold int

	// SkipC2Scan skips the fingerprint sweep entirely.
	SkipC2Scan bool

	// Metrics, when non-nil, receives every substrate's live telemetry
	// (probe latencies, C2 sweep progress, resolver cache hits, cold/warm
	// starts, PDNS throughput) and is snapshotted into the run archive's
	// timings. Nil creates a private registry so the snapshot is always
	// complete.
	Metrics *obs.Registry

	// SampleInterval sets the run observer's sampling period. Every tick
	// takes one registry snapshot and one runtime reading, and that one
	// sample feeds three jobs: the SLO health rules, the per-stage resource
	// high-water marks (Results.Resources, plus proc_* gauges and
	// EventResource records), and one timeline window — registry deltas,
	// per-window histogram quantiles, stage annotations, the health breaches
	// that tick fired, the tick's resource reading, anomaly markers —
	// appended to timeline.jsonl on the machine-varying side of the run
	// archive. Zero keeps only the health job, every 500ms. Deliberately NOT
	// part of configMeta: observing a run does not change it, so toggling
	// sampling must not move the run ID or any golden fingerprint.
	SampleInterval time.Duration
	// Timeline, when non-nil, receives the run's timeline windows as they
	// close — cmd/scfpipe creates it up front so the live /dash dashboard
	// can subscribe before the run starts. The run closes it when it ends.
	Timeline *timeline.Stream

	// Profile enables the continuous-profiling capture manager: one CPU
	// profile spans the whole run (samples attributed to stages and shards
	// by runtime/pprof labels), and heap/allocs/block/mutex snapshots are
	// taken at every stage boundary, all landing under profiles/ on the
	// machine-varying side of the run archive. Like SampleInterval it is
	// deliberately NOT part of configMeta: profiling observes a run, it
	// does not change one, so toggling it must not move the run ID or any
	// golden fingerprint.
	Profile bool

	// CheckpointDir enables durable checkpointing: versioned snapshots of
	// pipeline progress land under <dir>/<run-id>/checkpoints, written
	// atomically at every stage boundary. Empty disables checkpointing
	// entirely. Resume restores the newest valid checkpoint for this
	// config's run ID and skips the completed stages; a stage the previous
	// run was interrupted in runs again from its start. Resume requires
	// CheckpointDir. Like SampleInterval, both are deliberately NOT part of
	// configMeta: they change how a run survives interruption, not what it
	// measures, so toggling them must never move the run ID or any golden
	// fingerprint — and the crashing and resuming invocations of one run
	// must share an ID.
	CheckpointDir string
	Resume        bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ClusterThreshold <= 0 {
		c.ClusterThreshold = 0.1
	}
	if c.ProbeConcurrency <= 0 {
		c.ProbeConcurrency = 32
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxClusterDocs == 0 {
		// 0 is "use the default cap"; negative survives as "no cap".
		c.MaxClusterDocs = 4000
	}
	return c
}

// Results carries every artifact of a pipeline run; the report renderers
// and benchmarks read from here.
type Results struct {
	Config     Config
	Population *workload.Population

	// Identification & usage analysis.
	Aggregate *pdns.Aggregate
	Frequency analysis.FrequencyStats
	Lifespan  analysis.LifespanStats

	// Active probing.
	ProbeResults []probe.Result
	ProbeStats   probe.Stats

	// Content analysis.
	SecretsCensus  secrets.Census
	TypeCounts     map[content.Type]int
	ClustersByType map[content.Type]int
	TotalClusters  int
	ContentRich    int

	// Abuse.
	AbuseReport  *abuse.Report
	Verdicts     map[string][]abuse.Verdict
	ResaleGroups []abuse.Group
	C2Detections []c2.Detection

	// Defence gap.
	TICoverage ti.Coverage

	// Responsible disclosure packages, per affected provider (§5.5).
	Disclosures []*disclosure.Report

	// Observability: the run's stage trace, the metrics registry every
	// substrate reported into, and the flattened stage records (also
	// available live over -metrics-addr while the run executes).
	Trace   *obs.Trace
	Metrics *obs.Registry
	Stages  []obs.SpanRecord

	// Degradations is the per-stage record of what the run absorbed
	// instead of aborting on — injected faults survived, probes retried,
	// corrupt feed records dropped, breakers opened. Empty for a clean run.
	Degradations []obs.Degradation

	// Health is the final evaluation of the run's SLO rules, one row per
	// (rule, provider/shard group); rules that fired mid-run stay fired.
	// Like the metrics it derives from, it lives on the machine-varying
	// side of the run archive, never in the deterministic summary.
	Health []health.Result

	// Resources is the per-stage runtime high-water-mark table the observer
	// collected (empty when Config.SampleInterval is zero). Also strictly
	// machine-varying: archived in timings.json, never summary.
	Resources []obs.ResourceStats

	// Profiles is everything the continuous-profiling capturer recorded
	// (empty unless Config.Profile): the run-wide CPU profile plus the
	// stage-boundary heap/allocs/block/mutex snapshots. Machine-varying by
	// nature — archived under profiles/, never fingerprinted.
	Profiles []prof.Snapshot

	// Recovery is the run's checkpoint/resume lineage, nil when the run did
	// not checkpoint. Archived in timings.json (machine-varying side):
	// whether a run was interrupted must never move a golden fingerprint.
	Recovery *runs.RecoveryInfo

	// Timeline is the run's windowed-telemetry sequence (empty when
	// Config.SampleInterval is zero): one window per observer tick with
	// metric deltas, stage/health annotations, the tick's resource reading,
	// and anomaly markers. Machine-varying — archived as timeline.jsonl,
	// never fingerprinted.
	Timeline []timeline.Window

	Elapsed time.Duration
}

// RunID returns the archive slot this run's configuration hashes to — the
// identity a checkpoint embeds and a resume validates against.
func (r *Results) RunID() string {
	return runs.RunID(runs.ConfigHash(r.configMeta()))
}

// configMeta flattens the run's configuration to the flat fact map the run
// archive's summary records and hashes. Only configuration belongs here —
// outcomes like elapsed time would poison the archive's config hash.
func (r *Results) configMeta() map[string]string {
	return map[string]string{
		"seed":              fmt.Sprint(r.Config.Seed),
		"scale":             fmt.Sprintf("%g", r.Config.Scale),
		"workers":           fmt.Sprint(r.Config.Workers),
		"cache_model":       fmt.Sprint(r.Config.CacheModel),
		"cluster_threshold": fmt.Sprintf("%g", r.Config.ClusterThreshold),
		"max_cluster_docs":  fmt.Sprint(r.Config.MaxClusterDocs),
		"probe_concurrency": fmt.Sprint(r.Config.ProbeConcurrency),
		"probe_timeout":     r.Config.ProbeTimeout.String(),
		"c2_concurrency":    fmt.Sprint(c2Concurrency),
		"c2_timeout":        c2Timeout(r.Config.ProbeTimeout).String(),
		"skip_c2_scan":      fmt.Sprint(r.Config.SkipC2Scan),
		"chaos":             r.Config.Chaos.String(),
	}
}

// Run executes the full pipeline with a background context.
func Run(cfg Config) (*Results, error) { return RunContext(context.Background(), cfg) }

// resolve applies the defaults and resolves the chaos profile: an unset
// fault half defers to SCF_CHAOS (keeping any crash schedule the config
// carries), and a profile without a pinned seed inherits the substrate seed
// so fault schedules reproduce exactly like the population does.
func (c Config) resolve() (Config, error) {
	c = c.withDefaults()
	if c.Resume && c.CheckpointDir == "" {
		return c, fmt.Errorf("core: Resume requires CheckpointDir")
	}
	chaos, err := c.Chaos.OrEnv()
	if err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	c.Chaos = chaos.WithSeed(c.Seed)
	enabled := c.Chaos.Enabled()
	if enabled && c.ProbeRetries == 0 {
		c.ProbeRetries = 2
	}
	if c.ProbeRetries < 0 {
		c.ProbeRetries = 0
	}
	if c.ProbeRetryBackoff <= 0 {
		c.ProbeRetryBackoff = c.ProbeTimeout / 20
	}
	if c.BreakerThreshold == 0 && enabled {
		c.BreakerThreshold = 50
	}
	return c, nil
}

// RunContext executes the full pipeline under ctx. Cancelling the context
// stops the run at the end of the stage it interrupts: the partial Results
// accumulated so far are returned alongside the context error, wrapped as
// "core: <stage>: ...", with the cancellation recorded on that stage's span
// and no checkpoint written for it, so the event log of an aborted run
// still tells its story.
//
// Every stage is traced: if ctx carries an obs.Trace the stage spans attach
// there, otherwise a fresh trace is created. Either way the trace and the
// metrics registry end up on the Results.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Results{Config: cfg}

	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace()
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	res.Trace, res.Metrics = tr, reg

	injector := fault.New(cfg.Chaos)
	if err := injector.Crashpoints(stageTableNames()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	injector.Instrument(reg)
	// Latency spikes must outlast the probe client's timeout so they
	// classify as timeouts rather than hanging the sweep.
	injector.SetSpikeDelay(3 * cfg.ProbeTimeout)

	elog := obs.EventLogFrom(ctx)

	// ---- Checkpoint/resume wiring. ----
	// The run ID (a pure function of config) is the identity every snapshot
	// embeds; a checkpoint written under a different config resolves to a
	// different ID and can never be resumed into this run.
	runID := res.RunID()
	var mgr *checkpoint.Manager
	var resumed *checkpoint.Snapshot
	if cfg.CheckpointDir != "" {
		if cfg.Resume {
			snap, warns, lerr := checkpoint.Latest(cfg.CheckpointDir, runID)
			for _, warn := range warns {
				elog.Emit(obs.EventNote, "checkpoint-warning", obs.Attr{Key: "detail", Value: warn})
			}
			switch {
			case lerr == nil:
				// Workers is in configMeta, so a mismatch here means a
				// hand-tampered checkpoint; refuse rather than mis-shard.
				if snap.Header.Workers != cfg.Workers {
					return nil, fmt.Errorf("core: resume: checkpoint written at workers=%d, run has workers=%d", snap.Header.Workers, cfg.Workers)
				}
				resumed = snap
			case errors.Is(lerr, checkpoint.ErrNoCheckpoint):
				// A crash before the first boundary left nothing durable;
				// a fresh start is exactly equivalent to resuming it.
				elog.Emit(obs.EventNote, "resume-fresh", obs.Attr{Key: "detail", Value: lerr.Error()})
			default:
				return nil, fmt.Errorf("core: resume: %w", lerr)
			}
		}
		mgr = checkpoint.NewManager(checkpoint.Dir(cfg.CheckpointDir, runID), runID, cfg.Seed, cfg.Workers, reg, elog)
		if resumed != nil {
			mgr.Restore(resumed)
			reg.Counter("recovery_resumed_total").Inc()
			elog.Emit(obs.EventNote, "recovery",
				obs.Attr{Key: "seq", Value: fmt.Sprint(resumed.Header.Seq)},
				obs.Attr{Key: "stage", Value: resumed.Header.Stage})
		}
	}

	// ---- Observers. ----
	// One sampling loop watches the whole run: every tick evaluates the SLO
	// health rules and, with SampleInterval set, folds a resource reading
	// into the current stage's marks and closes a timeline window. The
	// profile capturer observes from the side too, so a capture failure
	// degrades to an event-log note, never a run error.
	observer := timeline.NewObserver(reg, timeline.Options{
		Interval: cfg.SampleInterval,
		Rules:    health.DefaultRules(cfg.ProbeTimeout),
		Events:   elog,
		Stream:   cfg.Timeline,
	})
	observer.Start()
	capturer := prof.NewCapturer(cfg.Profile)
	capturer.Start() // a failure surfaces through capturer.Err after Stop
	p := &pipeline{cfg: cfg, res: res, reg: reg, injector: injector}
	defer func() {
		if p.edge != nil {
			p.edge.Close()
		}
		rep := observer.Stop()
		res.Timeline, res.Resources, res.Health = rep.Windows, rep.Resources, rep.Health
		res.Profiles = capturer.Stop()
		if perr := capturer.Err(); perr != nil {
			elog.Emit(obs.EventNote, "profile-error", obs.Attr{Key: "detail", Value: perr.Error()})
		}
		res.Stages = tr.Records()
		if mgr != nil {
			li := mgr.Info()
			res.Recovery = &runs.RecoveryInfo{
				Resumed: li.Resumed, ResumedFrom: li.ResumedFrom, ResumedStage: li.ResumedStage,
				Checkpoints: li.Writes, LastSeq: li.LastSeq, LastStage: li.LastStage,
			}
		}
		res.Degradations = collectDegradations(reg)
		res.Elapsed = time.Since(start)
		// Close the event log's story with what the run absorbed. Stage
		// boundaries were logged by the spans; the final metric state is
		// the archive's timings, not an event.
		for _, d := range res.Degradations {
			elog.EmitDegradation(d)
		}
	}()

	// ---- The stage loop: it alone owns the boundary protocol. ----
	// Stage attribution for CPU profiles rides on pprof labels: the loop's
	// goroutine carries the stage label while the stage works, every
	// goroutine the stage spawns (probe sweep, parallelFor, emission shards)
	// inherits it at spawn, and pprof.Do restores the caller's labels
	// afterwards. The work between stages — the crashpoint, the observer's
	// and the profile capturer's stage switch, and the checkpoint write —
	// runs under stage=boundary, so a stage's label covers its own work
	// only. Labels are set whether or not this run captures, so the live
	// /debug/pprof endpoints see them too.
	boundary := func(f func()) {
		pprof.Do(ctx, pprof.Labels("stage", "boundary"), func(context.Context) { f() })
	}
	for _, st := range stages {
		var before map[string]int64
		boundary(func() {
			// The seeded crashpoint fires here when it targets this
			// boundary: after the previous stage's checkpoint and before
			// any of this stage's work, exactly like a power loss between
			// them.
			injector.CrashAtStage(st.name)
			observer.SetStage(st.name)
			capturer.StageBoundary(st.name)
			if st.save != nil {
				before = stageCounters(reg, st.name)
			}
		})
		pprof.Do(ctx, pprof.Labels("stage", st.name), func(ctx context.Context) {
			sctx, sp := obs.StartSpan(ctx, st.name)
			if st.restore != nil && resumed.HasStage(st.name) && st.restore(p, resumed) {
				restoreCounters(reg, st.name, resumed.Counters)
				sp.SetAttr("resumed", true)
			}
			err = st.run(p, sctx, sp)
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			sp.SetError(err)
			sp.End()
		})
		if err != nil {
			return res, fmt.Errorf("core: %s: %w", st.name, err)
		}
		boundary(func() {
			var agg *pdns.Aggregate
			var probed *checkpoint.ProbeState
			var deltas map[string]int64
			if st.save != nil {
				agg, probed = st.save(p)
				deltas = counterDeltas(reg, st.name, before)
			}
			mgr.StageDone(st.name, agg, probed, deltas)
		})
	}
	return res, nil
}

// stage is one entry of the pipeline's stage table. The loop in RunContext
// runs the entries in order and owns everything at their boundaries.
type stage struct {
	name string
	// run does the stage's work on ctx and annotates sp. A cancelled ctx
	// is the loop's to report, so run need not check it.
	run func(p *pipeline, ctx context.Context, sp *obs.Span) error
	// save returns what the stage's boundary checkpoint carries beyond the
	// completed-stage ledger; nil for ledger-only stages. The loop adds the
	// stage's degradation counter deltas (see stageCounters).
	save func(p *pipeline) (*pdns.Aggregate, *checkpoint.ProbeState)
	// restore adopts a resumed checkpoint's copy of the stage's output and
	// reports whether the checkpoint had one; the loop then adds the saved
	// counter deltas back to the registry, and run derives only what the
	// checkpoint does not carry. Nil for stages that recompute: they
	// produce their output and their counters again.
	restore func(p *pipeline, s *checkpoint.Snapshot) bool
}

// stages is the paper's method as data: substrate, then identify (§3.2),
// probe (§3.3), sanitise and cluster (§3.4), classify (§5), assess and
// disclose (§5.5). Its names are the boundaries a seeded crash may target
// (see stageTableNames).
//
// Only identify and probe checkpoint their output: the substrate is
// regenerated from the seed (cheaper than serialising it), and the stages
// after probe are cheap, deterministic recomputations of earlier state, so
// a resume that lands past probe replays them.
var stages = []stage{
	{name: "substrate", run: (*pipeline).substrate},
	{
		name: "identify", run: (*pipeline).identify,
		save: func(p *pipeline) (*pdns.Aggregate, *checkpoint.ProbeState) { return p.res.Aggregate, nil },
		restore: func(p *pipeline, s *checkpoint.Snapshot) bool {
			p.res.Aggregate = s.Aggregate
			return s.Aggregate != nil
		},
	},
	{
		name: "probe", run: (*pipeline).probe,
		save: func(p *pipeline) (*pdns.Aggregate, *checkpoint.ProbeState) {
			return nil, &checkpoint.ProbeState{Results: p.res.ProbeResults, Stats: p.res.ProbeStats}
		},
		restore: func(p *pipeline, s *checkpoint.Snapshot) bool {
			if s.Probe == nil {
				return false
			}
			// Probe results (bodies included) ride in the checkpoint, so
			// the content stages downstream see exactly what the crashed
			// run saw.
			p.res.ProbeResults, p.res.ProbeStats = s.Probe.Results, s.Probe.Stats
			return true
		},
	},
	{name: "sanitise", run: (*pipeline).sanitise},
	{name: "cluster", run: (*pipeline).cluster},
	{name: "classify", run: (*pipeline).classify},
	{name: "assess", run: (*pipeline).assess},
	{name: "disclosure", run: (*pipeline).disclosure},
}

// stageTableNames lists the stage table's names in execution order.
func stageTableNames() []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	return names
}

// pipeline is one run's state between stages: the resolved config, the
// substrate every stage reaches, the corpora one stage hands the next, and
// the Results the stages fill in.
type pipeline struct {
	cfg      Config
	res      *Results
	reg      *obs.Registry
	injector *fault.Injector

	pop      *workload.Population
	resolver *dnssim.Resolver
	db       *c2.DB
	edge     *faas.Edge
	targets  []string

	docs         []abuse.Document
	contentDocs  []string
	contentTypes []content.Type
	requests     map[string]int64
}

// substrate builds the population, DNS, platform, and in-memory edge.
func (p *pipeline) substrate(_ context.Context, sp *obs.Span) error {
	cfg := p.cfg
	p.pop = workload.Generate(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale, CacheModel: cfg.CacheModel, Workers: cfg.Workers})
	p.res.Population = p.pop
	p.resolver = dnssim.NewResolver()
	p.resolver.Instrument(p.reg)

	p.db = c2.DefaultDB()
	p.edge = startEdge(cfg, p.pop, p.db, p.reg)
	sp.SetAttr("functions", len(p.pop.Functions))
	return nil
}

// startEdge deploys every function of pop on a fresh platform and serves
// its gateway over an in-memory edge.
func startEdge(cfg Config, pop *workload.Population, db *c2.DB, reg *obs.Registry) *faas.Edge {
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, db)
	gw := faas.NewGateway(platform)
	gw.Instrument(reg)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	return faas.StartEdge(gw)
}

// identify is PDNS identification and aggregation (§3.2, §4). Emission and
// aggregation shard by FQDN across cfg.Workers: each worker feeds its own
// aggregator from its own per-function RNG streams, and the shard
// aggregates merge into the exact result the serial pass produces (see
// workload.AggregateParallel).
func (p *pipeline) identify(ctx context.Context, sp *obs.Span) error {
	cfg, res := p.cfg, p.res
	if res.Aggregate == nil { // not restored from a checkpoint
		// Under chaos a deterministic fraction of the feed is corrupted
		// before aggregation; mangled records fail validation inside the
		// aggregator and count as dropped, like a real feed's garbage rows.
		var mutate []func(*pdns.Record)
		if cfg.Chaos.FeedCorrupt > 0 {
			mutate = append(mutate, func(r *pdns.Record) { p.injector.CorruptRecord(r) })
		}
		agg, err := workload.AggregateParallel(ctx, p.pop, p.resolver, nil, cfg.Workers, p.reg, mutate...)
		if err != nil {
			return fmt.Errorf("pdns: %w", err)
		}
		res.Aggregate = agg
	}
	// Deletions take effect only now: the PDNS history above was recorded
	// while the functions were alive, but the probing phase sees deleted
	// Tencent functions as NXDOMAIN (§4.4).
	workload.MarkDeleted(p.pop, p.resolver)
	perFn := res.Aggregate.PerFunctionStats()
	res.Frequency = analysis.Frequency(perFn)
	res.Lifespan = analysis.Lifespan(perFn, workload.Window())
	sp.SetAttr("records", res.Aggregate.Scanned)
	sp.SetAttr("matched", res.Aggregate.Matched)
	sp.SetAttr("domains", res.Aggregate.TotalDomains())
	sp.SetAttr("workers", cfg.Workers)
	return nil
}

// probe is the active-probing sweep (§3.3).
func (p *pipeline) probe(ctx context.Context, sp *obs.Span) error {
	p.targets = p.pop.ProbeTargets()
	if p.res.ProbeResults == nil { // not restored from a checkpoint
		prober := probe.New(probeConfig(p.cfg, p.pop, p.resolver, p.edge, p.injector, p.reg))
		p.res.ProbeResults = prober.ProbeAll(ctx, p.targets)
		p.res.ProbeStats = prober.Stats()
		sp.SetAttr("targets", len(p.targets))
	}
	sp.SetAttr("reachable", p.res.ProbeStats.Reachable)
	p.resolver = nil // no later stage resolves; its lookup cache can go
	return nil
}

// sanitise is sensitive-data scanning and anonymisation (§3.4, Appendix
// A). The per-response scan+anonymise work is pure once the salt is fixed,
// so it fans out across cfg.Workers; the fold back into census, type
// counts, and the document corpus runs serially in probe-result order,
// keeping the stage bit-identical for every worker count.
func (p *pipeline) sanitise(_ context.Context, sp *obs.Span) error {
	res := p.res
	anon := secrets.NewAnonymizer(rand.New(rand.NewSource(p.cfg.Seed ^ 0x5a17)))
	res.TypeCounts = map[content.Type]int{}
	byFQDN := fqdnIndex(p.pop)
	type sanitised struct {
		doc      abuse.Document
		findings []secrets.Finding
		ct       content.Type
		keep     bool // reachable: contributes a document
		rich     bool // 200 + body: contributes to the content corpus
	}
	cleaned := make([]sanitised, len(res.ProbeResults))
	parallelFor(len(res.ProbeResults), p.cfg.Workers, func(i int) {
		r := &res.ProbeResults[i]
		if !r.Reachable {
			return
		}
		out := &cleaned[i]
		out.keep = true
		body := string(r.Body)
		if r.Status == 200 && len(body) > 0 {
			clean, findings := anon.Sanitize(body)
			body = clean
			out.findings = findings
			out.ct = content.DetectType([]byte(body), r.ContentType)
			out.rich = true
		}
		out.doc = abuse.Document{
			FQDN:        r.FQDN,
			Status:      r.Status,
			ContentType: r.ContentType,
			Body:        body,
			Location:    r.Location,
		}
		if f := byFQDN[r.FQDN]; f != nil {
			out.doc.Provider = f.Provider.String()
			out.doc.Region = f.Region
			out.doc.ChinaRegion = providers.ChinaRegion(f.Region)
		}
	})
	p.docs = make([]abuse.Document, 0, len(res.ProbeResults))
	for i := range cleaned {
		c := &cleaned[i]
		if !c.keep {
			continue
		}
		if c.rich {
			res.SecretsCensus.Add(c.findings)
			res.ContentRich++
			res.TypeCounts[c.ct]++
			p.contentDocs = append(p.contentDocs, c.doc.Body)
			p.contentTypes = append(p.contentTypes, c.ct)
		}
		p.docs = append(p.docs, c.doc)
	}
	sp.SetAttr("docs", len(p.docs))
	sp.SetAttr("content_rich", res.ContentRich)
	return nil
}

// cluster is per-content-type TF-IDF clustering (§3.4).
func (p *pipeline) cluster(_ context.Context, sp *obs.Span) error {
	p.res.ClustersByType = clusterByType(p.contentDocs, p.contentTypes, p.cfg)
	// The corpus is consumed: dropping it keeps the sanitised bodies out of
	// the live heap during the allocation-heavy C2 sweep.
	p.contentDocs, p.contentTypes = nil, nil
	for _, n := range p.res.ClustersByType {
		p.res.TotalClusters += n
	}
	sp.SetAttr("clusters", p.res.TotalClusters)
	return nil
}

// classify is abuse classification (§5). Classify is pure per document,
// so the scan fans out; the verdict map is folded serially in document
// order. The C2 fingerprint sweep runs inside it as a nested span: its
// detections become verdicts of this stage, so it has no boundary of its
// own.
func (p *pipeline) classify(ctx context.Context, sp *obs.Span) error {
	cfg, res, docs := p.cfg, p.res, p.docs
	res.Verdicts = map[string][]abuse.Verdict{}
	verdicts := make([][]abuse.Verdict, len(docs))
	parallelFor(len(docs), cfg.Workers, func(i int) {
		verdicts[i] = abuse.Classify(&docs[i])
	})
	for i, vs := range verdicts {
		if len(vs) > 0 {
			res.Verdicts[docs[i].FQDN] = vs
		}
	}
	p.docs = nil // consumed, as the corpus is in cluster
	if !cfg.SkipC2Scan {
		targets := c2Targets(res.ProbeResults)
		cctx, csp := obs.StartSpan(ctx, "c2-sweep")
		res.C2Detections = scanC2(cctx, cfg, p.edge, p.db, p.reg, targets)
		csp.SetAttr("targets", len(targets))
		csp.SetAttr("detections", len(res.C2Detections))
		csp.SetError(cctx.Err())
		csp.End()
		for _, d := range res.C2Detections {
			if !hasCase(res.Verdicts[d.Host], abuse.CaseC2) {
				res.Verdicts[d.Host] = append(res.Verdicts[d.Host],
					abuse.Verdict{FQDN: d.Host, Case: abuse.CaseC2, Evidence: []string{d.Fingerprint}})
			}
		}
	}
	p.requests = map[string]int64{}
	for fqdn, fs := range res.Aggregate.ByFQDN {
		p.requests[fqdn] = fs.TotalRequest
	}
	res.AbuseReport = abuse.NewReport(res.Verdicts, p.requests, res.ContentRich)
	var allVerdicts []abuse.Verdict
	for _, vs := range res.Verdicts {
		allVerdicts = append(allVerdicts, vs...)
	}
	res.ResaleGroups = abuse.GroupByContact(allVerdicts)
	sp.SetAttr("abused", res.AbuseReport.TotalFunctions())
	return nil
}

// assess measures threat-intelligence coverage of the abused functions
// (§5.5).
func (p *pipeline) assess(_ context.Context, sp *obs.Span) error {
	oracle := ti.NewOracle()
	seedTI(oracle, p.res.C2Detections)
	abused := make([]string, 0, len(p.res.AbuseReport.Assigned))
	for fqdn := range p.res.AbuseReport.Assigned {
		abused = append(abused, fqdn)
	}
	p.res.TICoverage = oracle.Assess(abused)
	sp.SetAttr("flagged", p.res.TICoverage.Flagged)
	return nil
}

// disclosure builds the per-provider responsible-disclosure packages (§5.5,
// Appendix A).
func (p *pipeline) disclosure(_ context.Context, sp *obs.Span) error {
	p.res.Disclosures = disclosure.Build(p.res.AbuseReport, p.res.Verdicts, p.requests)
	disclosure.SimulateVendorResponses(p.res.Disclosures, workload.DeployWindowClock()())
	sp.SetAttr("reports", len(p.res.Disclosures))
	return nil
}

// probeConfig configures the probe stage's prober: DNS through the
// simulated resolver, connections to the in-memory edge, both through the
// chaos layer. One dialer serves both transport hooks: https:// requests
// arrive through DialTLSContext, so the transport runs no handshake over
// the edge's plain-framed port-443 conn.
func probeConfig(cfg Config, pop *workload.Population, resolver *dnssim.Resolver, edge *faas.Edge, injector *fault.Injector, reg *obs.Registry) probe.Config {
	var breaker probe.Breaker
	if cfg.BreakerThreshold > 0 {
		// An open circuit rests 5×ProbeTimeout before a half-open trial.
		br := fault.NewBreaker(cfg.BreakerThreshold, 5*cfg.ProbeTimeout)
		br.Instrument(reg)
		breaker = br
	}
	matcher := providers.NewMatcher(nil)
	dial := injector.WrapDial(simDialer(edge, httpOnlyFQDNs(pop)))
	return probe.Config{
		Timeout:      cfg.ProbeTimeout,
		Concurrency:  cfg.ProbeConcurrency,
		Retries:      cfg.ProbeRetries,
		RetryBackoff: cfg.ProbeRetryBackoff,
		Breaker:      breaker,
		BreakerKey: func(fqdn string) string {
			// Circuit per provider: one cloud's outage must not stop the
			// sweep of the other eight.
			if info, ok := matcher.Identify(fqdn); ok {
				return info.Name
			}
			return fqdn
		},
		Provider: func(fqdn string) string {
			if info, ok := matcher.Identify(fqdn); ok {
				return info.Name
			}
			return "unknown"
		},
		Metrics: reg,
		Resolve: injector.WrapResolve(func(fqdn string) error {
			rng := rand.New(lazyrand.New(int64(pdns.HashFQDN(fqdn))))
			_, err := resolver.Resolve(fqdn, rng)
			return err
		}),
		DialContext:    dial,
		DialTLSContext: dial,
	}
}

// httpOnlyFQDNs is the set of functions that serve no TLS.
func httpOnlyFQDNs(pop *workload.Population) map[string]bool {
	httpOnly := map[string]bool{}
	for _, f := range pop.Functions {
		if f.HTTPOnly {
			httpOnly[f.FQDN] = true
		}
	}
	return httpOnly
}

// degradationMetrics maps the resilience counters to (stage, kind) rows;
// declaration order is the report order.
var degradationMetrics = []struct {
	metric, stage, kind string
}{
	{"fault_corrupt_records_total", "identify", "injected-corrupt-records"},
	{"pdns_records_dropped_total", "identify", "dropped-records"},
	{"fault_dns_injected_total", "probe", "injected-dns-failures"},
	{"fault_resets_injected_total", "probe", "injected-resets"},
	{"fault_flaps_injected_total", "probe", "injected-flaps"},
	{"fault_truncations_injected_total", "probe", "injected-truncations"},
	{"fault_latency_injected_total", "probe", "injected-latency-spikes"},
	{"probe_conn_retries_total", "probe", "conn-retries"},
	{"probe_breaker_skips_total", "probe", "breaker-skips"},
	{"fault_breaker_opens_total", "probe", "breaker-opens"},
	{"probe_body_aborts_total", "probe", "body-drain-aborts"},
	// Recovery rows surface in Results.Degradations and the event log, but
	// BuildArchive filters them out of the deterministic summary: whether a
	// run was interrupted and resumed is machine circumstance, not a change
	// in what it measured (see summaryDegradations).
	{"recovery_resumed_total", "pipeline", "recovery-resumed"},
	{"checkpoint_write_errors_total", "pipeline", "checkpoint-write-errors"},
}

// stageCounters reads the registry counters behind stage's degradation
// rows.
func stageCounters(reg *obs.Registry, stage string) map[string]int64 {
	snap := reg.Snapshot()
	out := map[string]int64{}
	for _, dm := range degradationMetrics {
		if dm.stage == stage {
			out[dm.metric] = snap.Counters[dm.metric]
		}
	}
	return out
}

// counterDeltas returns how far stage has moved its degradation counters
// since before, leaving out the ones it did not move. A stage's boundary
// checkpoint records them, so a resume that restores the stage instead of
// running it still reports what the stage absorbed.
func counterDeltas(reg *obs.Registry, stage string, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range stageCounters(reg, stage) {
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// restoreCounters adds the counter deltas a checkpoint recorded for stage
// back to the registry.
func restoreCounters(reg *obs.Registry, stage string, saved map[string]int64) {
	for _, dm := range degradationMetrics {
		if v := saved[dm.metric]; dm.stage == stage && v != 0 {
			reg.Counter(dm.metric).Add(v)
		}
	}
}

// collectDegradations snapshots the resilience counters into per-stage
// degradation records, keeping only the non-zero ones: a clean run reports
// an empty list, a degraded run reports exactly what it absorbed.
func collectDegradations(reg *obs.Registry) []obs.Degradation {
	snap := reg.Snapshot()
	var out []obs.Degradation
	for _, dm := range degradationMetrics {
		if v := snap.Counters[dm.metric]; v > 0 {
			out = append(out, obs.Degradation{Stage: dm.stage, Kind: dm.kind, Count: v})
		}
	}
	return out
}

// seedTI mirrors Finding 10: threat intelligence knows about (at most) four
// of the C2 relays and nothing else.
func seedTI(oracle *ti.Oracle, ds []c2.Detection) {
	seen := map[string]struct{}{}
	var hosts []string
	for _, d := range ds {
		if _, ok := seen[d.Host]; ok {
			continue
		}
		seen[d.Host] = struct{}{}
		hosts = append(hosts, d.Host)
		if len(hosts) == 4 {
			break
		}
	}
	oracle.Seed(hosts, 2)
}

func hasCase(vs []abuse.Verdict, c abuse.Case) bool {
	for _, v := range vs {
		if v.Case == c {
			return true
		}
	}
	return false
}

func fqdnIndex(pop *workload.Population) map[string]*workload.Function {
	out := make(map[string]*workload.Function, len(pop.Functions))
	for _, f := range pop.Functions {
		out[f.FQDN] = f
	}
	return out
}

// clusterByType clusters sanitised documents within each content type,
// returning per-type cluster counts (paper: 4,512 clusters total).
func clusterByType(docs []string, types []content.Type, cfg Config) map[content.Type]int {
	grouped := map[content.Type][]string{}
	for i, d := range docs {
		grouped[types[i]] = append(grouped[types[i]], d)
	}
	out := map[content.Type]int{}
	for t, ds := range grouped {
		if cfg.MaxClusterDocs > 0 && len(ds) > cfg.MaxClusterDocs {
			ds = ds[:cfg.MaxClusterDocs]
		}
		out[t] = len(content.ClusterDocs(ds, cfg.ClusterThreshold))
	}
	return out
}

// c2Targets picks the hosts the C2 sweep scans. The paper probed every
// domain; the sweep skips hosts whose HTTP probe already timed out or failed
// DNS, because re-timing-out on 26 exchanges per host only burns wall clock.
func c2Targets(results []probe.Result) []string {
	var out []string
	for i := range results {
		r := &results[i]
		if r.Reachable || r.Failure == probe.FailConn {
			out = append(out, r.FQDN)
		}
	}
	return out
}

// c2Concurrency bounds concurrent fingerprint scans.
const c2Concurrency = 32

// c2Timeout bounds each C2 exchange: half the probe timeout, at most
// a second, because stalling unreachable hosts dominate sweep time.
func c2Timeout(probeTimeout time.Duration) time.Duration {
	return min(probeTimeout/2, time.Second)
}

// scanC2 sweeps every target with the fingerprint scanner through the plain
// edge listener, c2Concurrency hosts at a time. The listener is port-blind,
// so the scanner sends each fingerprint's probe once per host (c2.Scanner).
// A cancelled ctx stops scheduling new hosts and aborts in-flight scans. Detections come back
// sorted by host, each host's in DB order, not in the order the scans
// finished: seedTI and the verdicts read them first to last.
func scanC2(ctx context.Context, cfg Config, edge *faas.Edge, db *c2.DB, reg *obs.Registry, targets []string) []c2.Detection {
	scanner := c2.NewScanner(db)
	scanner.Instrument(reg)
	scanner.Timeout = c2Timeout(cfg.ProbeTimeout)
	scanner.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) {
		return edge.DialPlain(ctx)
	}
	var (
		mu  sync.Mutex
		out []c2.Detection
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, c2Concurrency)
	for _, host := range targets {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(host string) {
			defer wg.Done()
			defer func() { <-sem }()
			ds := scanner.ScanHost(ctx, host)
			if len(ds) > 0 {
				mu.Lock()
				out = append(out, ds...)
				mu.Unlock()
			}
		}(host)
	}
	wg.Wait()
	slices.SortStableFunc(out, func(a, b c2.Detection) int { return strings.Compare(a.Host, b.Host) })
	return out
}

// simDialer routes the prober at the simulated edge: port 443 to the HTTPS
// listener, everything else to the plain listener. HTTP-only functions
// refuse HTTPS.
func simDialer(edge *faas.Edge, httpOnly map[string]bool) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		if port != "443" {
			return edge.DialPlain(ctx)
		}
		if httpOnly[strings.ToLower(host)] {
			return nil, fmt.Errorf("connection refused (no HTTPS listener for %s)", host)
		}
		return edge.DialHTTPS(ctx)
	}
}

// parallelFor runs fn(i) for i in [0, n) across at most workers goroutines.
// Iterations are strided, not chunked, so uneven per-item cost still
// balances; fn must only write state owned by index i.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
