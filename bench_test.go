// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// Naming follows the per-experiment index in DESIGN.md: one Benchmark per
// paper artifact (T1–T3, F3–F7) plus supporting statistics and ablations.
package divecloud_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	divecloud "repro"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/lazyrand"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/secrets"
	"repro/internal/ti"
	"repro/internal/workload"
)

// ---- shared fixtures, built once per bench binary ----

var (
	fixOnce    sync.Once
	fixPop     *workload.Population
	fixRecords []pdns.Record
	fixAgg     *pdns.Aggregate
	fixPerFn   []*pdns.FQDNStats
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixPop = workload.Generate(workload.Config{Seed: 1, Scale: 0.01})
		resolver := dnssim.NewResolver()
		recs, err := workload.Records(fixPop, resolver)
		if err != nil {
			panic(err)
		}
		fixRecords = recs
		w := workload.Window()
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		for i := range recs {
			agg.Add(&recs[i])
		}
		fixAgg = agg.Finish()
		fixPerFn = fixAgg.PerFunctionStats()
	})
}

var (
	resOnce   sync.Once
	fixResult *core.Results
)

func pipelineResults(b *testing.B) *core.Results {
	b.Helper()
	resOnce.Do(func() {
		res, err := core.Run(core.Config{
			Seed: 1, Scale: 0.002, SkipC2Scan: true,
			ProbeTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		fixResult = res
	})
	return fixResult
}

// ---- T1: URL formats (Table 1) ----

// BenchmarkTable1URLFormats measures the generate→identify round trip for
// every provider format.
func BenchmarkTable1URLFormats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := providers.NewMatcher(nil)
	formats := providers.Collected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := formats[i%len(formats)]
		dom := in.Generate(rng, "")
		if got, ok := m.Identify(dom); !ok || got.ID != in.ID {
			b.Fatalf("round trip failed for %s: %q", in.Name, dom)
		}
	}
}

// BenchmarkIdentifySuffixMap measures Identify over a mixed corpus (90%
// non-function noise, like a real PDNS feed), where most names leave at the
// suffix dispatch without reaching a structural check.
func BenchmarkIdentifySuffixMap(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := providers.NewMatcher(nil)
	var corpus []string
	for i := 0; i < 200; i++ {
		corpus = append(corpus, fmt.Sprintf("host%d.example%d.com", i, i%7))
	}
	for _, in := range providers.Collected() {
		for i := 0; i < 2; i++ {
			corpus = append(corpus, in.Generate(rng, ""))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Identify(corpus[i%len(corpus)])
	}
}

// BenchmarkIdentifyRegion is the identify kernel of the feed path, one name
// per op over a scale-0.01 population's function names: the resolver's
// lookup-cache miss and the aggregator's per-symbol miss each pay it once
// per distinct name. Sub-benchmark matcher is Matcher.IdentifyRegion (suffix
// dispatch, structural Table 1 check, region read); table1-regexp runs the
// compiled Table 1 Pattern behind the same suffix dispatch, without the
// region read: the regexp identification the structural checks replaced.
func BenchmarkIdentifyRegion(b *testing.B) {
	fixtures(b)
	names := make([]string, len(fixPop.Functions))
	for i, f := range fixPop.Functions {
		names[i] = f.FQDN
	}
	b.Run("matcher", func(b *testing.B) {
		m := providers.NewMatcher(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := m.IdentifyRegion(names[i%len(names)]); !ok {
				b.Fatalf("%q not identified", names[i%len(names)])
			}
		}
	})
	b.Run("table1-regexp", func(b *testing.B) {
		type format struct {
			suffix string
			re     *regexp.Regexp
		}
		var formats []format
		for _, in := range providers.Collected() {
			formats = append(formats, format{"." + in.DomainSuffix, regexp.MustCompile(in.Pattern)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := strings.ToLower(strings.TrimSuffix(names[i%len(names)], "."))
			ok := false
			for _, f := range formats {
				if strings.HasSuffix(name, f.suffix) {
					ok = f.re.MatchString(name)
					break
				}
			}
			if !ok {
				b.Fatalf("%q not identified", name)
			}
		}
	})
}

// ---- T2: resolution aggregation (Table 2) ----

// BenchmarkTable2Resolution measures single-pass PDNS aggregation
// throughput (records/op) plus the Table 2 rollup.
func BenchmarkTable2Resolution(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		for j := range fixRecords {
			agg.Add(&fixRecords[j])
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

var (
	batchOnce  sync.Once
	fixBatches []*pdns.RecordBatch
)

// batchFixtures materialises the record fixture as columnar batches sharing
// one intern table (the shape a streaming producer hands AddBatch), for the
// batch-path benchmarks.
func batchFixtures(b *testing.B) {
	b.Helper()
	fixtures(b)
	batchOnce.Do(func() {
		batch := pdns.NewRecordBatch(pdns.DefaultBatchRows)
		for i := range fixRecords {
			if batch.Len() == pdns.DefaultBatchRows {
				fixBatches = append(fixBatches, batch)
				batch = &pdns.RecordBatch{Syms: batch.Syms}
			}
			batch.AppendRecord(&fixRecords[i])
		}
		if batch.Len() > 0 {
			fixBatches = append(fixBatches, batch)
		}
	})
}

// BenchmarkTable2ResolutionBatch is the columnar form of the Table 2 rollup:
// the same records flow in as interned batches through AddBatch. The delta
// against BenchmarkTable2Resolution is what the SoA hot path buys once a
// producer emits batches natively.
func BenchmarkTable2ResolutionBatch(b *testing.B) {
	batchFixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		agg.Presize(len(fixPop.Functions))
		for _, bt := range fixBatches {
			agg.AddBatch(bt)
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

// BenchmarkTable2ResolutionInstrumented is the same rollup with the obs
// counters attached: the delta against BenchmarkTable2Resolution is the
// whole observability overhead on the aggregation hot path (three atomic
// increments per record; must stay within 5% of the baseline).
func BenchmarkTable2ResolutionInstrumented(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		agg.Instrument(reg)
		for j := range fixRecords {
			agg.Add(&fixRecords[j])
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

// BenchmarkObsPrimitives prices the individual instrumentation events.
func BenchmarkObsPrimitives(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h", nil)
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		var nc *obs.Counter
		for i := 0; i < b.N; i++ {
			nc.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%100) / 1000)
		}
	})
	b.Run("span", func(b *testing.B) {
		tr := obs.NewTrace()
		ctx := obs.ContextWithTrace(context.Background(), tr)
		for i := 0; i < b.N; i++ {
			_, sp := obs.StartSpan(ctx, "bench")
			sp.End()
		}
	})
}

// ---- T3: abuse classification (Table 3) ----

// BenchmarkTable3Abuse measures content classification over a realistic
// response corpus and the Table 3 assembly.
func BenchmarkTable3Abuse(b *testing.B) {
	docs := abuseCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts := map[string][]abuse.Verdict{}
		for j := range docs {
			if vs := abuse.Classify(&docs[j]); len(vs) > 0 {
				verdicts[docs[j].FQDN] = vs
			}
		}
		rep := abuse.NewReport(verdicts, nil, len(docs))
		if rep.TotalFunctions() == 0 {
			b.Fatal("no abuse found in corpus")
		}
	}
	b.ReportMetric(float64(len(docs)), "docs/op")
}

func abuseCorpus() []abuse.Document {
	rng := rand.New(rand.NewSource(3))
	var docs []abuse.Document
	bodies := []string{
		`<html><head><meta name="google-site-verification" content="x"/><title>slot betting casino</title></head><body>jackpot slot betting</body></html>`,
		`To purchase an API key (e.g., sk-abc12345...), contact via WeChat: seller_x`,
		`<script>location.href = "http://hidden.illicit.top/x"</script>`,
		`Ticketmaster puppeteer service: auto purchase tickets`,
		`{"status":"ok","count":1}`,
		`<html><body>welcome to my blog</body></html>`,
		`task finished in 20ms`,
	}
	for i := 0; i < 600; i++ {
		docs = append(docs, abuse.Document{
			FQDN:   fmt.Sprintf("f%03d-%010d-uc.a.run.app", i, rng.Int63n(1e9)),
			Status: 200, ContentType: "text/html",
			Body: bodies[i%len(bodies)],
		})
	}
	return docs
}

// ---- F3/F4: trend figures ----

func BenchmarkFigure3MonthlyCounts(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.NewFQDNsByMonth(fixAgg)
		if analysis.CumulativeFQDNs(s)[len(s)-1].Value == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure4InvocationTrends(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.InvocationTrend(fixAgg)) == 0 {
			b.Fatal("empty trends")
		}
	}
}

// ---- F5: invocation distribution ----

func BenchmarkFigure5RequestCDF(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := analysis.Frequency(fixPerFn)
		if st.Functions == 0 {
			b.Fatal("no functions")
		}
	}
}

// BenchmarkLifespanStats covers the §4.3 lifespan/activity analysis.
func BenchmarkLifespanStats(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := analysis.Lifespan(fixPerFn, w)
		if st.Functions == 0 {
			b.Fatal("no functions")
		}
	}
}

// ---- F6: probe sweep over the live gateway ----

// BenchmarkFigure6HTTPCodes measures active-probe throughput against the
// simulated edge (one probed function per op).
func BenchmarkFigure6HTTPCodes(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	// Re-deploy a live edge for this benchmark.
	platform, servers := liveEdge(b, r.Population)
	defer servers.Close()
	_ = platform
	dial := dialBoth(servers)
	p := probe.New(probe.Config{
		Timeout:        time.Second,
		DialContext:    dial,
		DialTLSContext: dial,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.Probe(context.Background(), targets[i%len(targets)])
		if res.Failure == probe.FailBudget {
			b.Fatal("probe budget exhausted")
		}
	}
}

// ---- F7: resale trend ----

func BenchmarkFigure7ResaleTrend(b *testing.B) {
	r := pipelineResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.RenderFigure7()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---- §3.4: clustering ----

func clusterCorpus(n int) []string {
	rng := rand.New(rand.NewSource(4))
	families := []string{
		"api response status ok result data",
		"gambling slot betting casino jackpot bonus",
		"task finished processed records log output",
		"welcome homepage service about contact",
	}
	var docs []string
	for i := 0; i < n; i++ {
		fam := families[i%len(families)]
		docs = append(docs, fmt.Sprintf("%s variant %d noise%d", fam, i%7, rng.Intn(20)))
	}
	return docs
}

func BenchmarkClustering(b *testing.B) {
	docs := clusterCorpus(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(content.ClusterDocs(docs, 0.1)) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// Ablation: dendrogram cut threshold (0.05 / 0.10 / 0.20).
func BenchmarkClusteringThreshold(b *testing.B) {
	docs := clusterCorpus(300)
	v := content.NewVectorizer(docs)
	dend := content.Agglomerate(v.TransformAll(docs))
	for _, th := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("cut=%.2f", th), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dend.Cut(th)
			}
			b.ReportMetric(float64(dend.NumClusters(th)), "clusters")
		})
	}
}

// ---- §5: secrets scan ----

func BenchmarkSecretsScan(b *testing.B) {
	bodies := []string{
		`{"status":"ok","token":"none"}`,
		`debug contact: 13812345678 and api_key: zq81kfh27dkq9sX2`,
		`<html><body>hello world page</body></html>`,
		`upstream 10.1.2.3 hwaddr 00:1a:2b:3c:4d:5e password=hunter22x`,
	}
	anon := secrets.NewAnonymizerWithSalt("benchsalt0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, fs := anon.Sanitize(bodies[i%len(bodies)])
		_ = fs
	}
}

// ---- §5.1: C2 fingerprints ----

// BenchmarkC2Fingerprint measures pure matcher throughput over banners.
func BenchmarkC2Fingerprint(b *testing.B) {
	db := c2.DefaultDB()
	fps := db.All()
	banners := make([][]byte, len(fps))
	for i, fp := range fps {
		banners[i] = c2.Banner(fp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := fps[i%len(fps)]
		if !fp.Match.Matches(banners[i%len(fps)]) {
			b.Fatal("matcher regression")
		}
	}
}

// BenchmarkC2ScanHost measures the full 26-signature scan of a host (26
// exchanges: one per signature, the edge being port-blind). edge scans one
// relay and one ordinary function per op through the path the pipeline's C2
// sweep runs: faas.StartEdge, the Gateway and the Platform, dialled as scanC2
// dials. The sub-benchmark keeps its name so the perf ledger's series
// continues.
func BenchmarkC2ScanHost(b *testing.B) {
	db := c2.DefaultDB()
	b.Run("edge", func(b *testing.B) {
		const (
			relay    = "relay.lambda-url.us-east-1.on.aws"
			ordinary = "plain.lambda-url.us-east-1.on.aws"
		)
		platform := faas.NewPlatform()
		platform.Deploy(relay, providers.AWS, "us-east-1", faas.Config{}, func(ctx *faas.InvokeContext) faas.Response {
			r := ctx.Request
			status, ct, body, _ := c2.BannerResponse(db, c2.FamilyCobaltStrike, r.Method, r.Path, r.Headers, r.Body)
			return faas.Response{Status: status, Headers: map[string]string{"Content-Type": ct}, Body: body}
		}, time.Time{})
		body := []byte(`{"status":"ok"}`)
		platform.Deploy(ordinary, providers.AWS, "us-east-1", faas.Config{}, func(*faas.InvokeContext) faas.Response {
			return faas.Response{Status: 200, Headers: map[string]string{"Content-Type": "application/json"}, Body: body}
		}, time.Time{})
		gw := faas.NewGateway(platform)
		// Each invocation a simulated second after the last, so executions
		// complete and the functions never reach their concurrency limit.
		start, calls := workload.DeployWindowClock()(), atomic.Int64{}
		gw.Clock = func() time.Time { return start.Add(time.Duration(calls.Add(1)) * time.Second) }
		edge := faas.StartEdge(gw)
		defer edge.Close()
		s := c2.NewScanner(db)
		s.Timeout = time.Second
		s.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) { return edge.DialPlain(ctx) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ds := s.ScanHost(context.Background(), relay); len(ds) == 0 {
				b.Fatal("relay not detected")
			}
			if ds := s.ScanHost(context.Background(), ordinary); len(ds) != 0 {
				b.Fatalf("ordinary function detected as a relay: %+v", ds)
			}
		}
	})
}

// ---- §5.5: threat-intel gap ----

func BenchmarkThreatIntelGap(b *testing.B) {
	oracle := ti.NewOracle()
	var abused []string
	for i := 0; i < 594; i++ {
		abused = append(abused, fmt.Sprintf("fn%03d.a.run.app", i))
	}
	oracle.Seed(abused[:4], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := oracle.Assess(abused)
		if c.Flagged != 4 {
			b.Fatalf("coverage = %d", c.Flagged)
		}
	}
}

// ---- substrate benchmarks and ablations ----

// BenchmarkEmitPDNS measures synthetic feed generation throughput.
func BenchmarkEmitPDNS(b *testing.B) {
	pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.002})
	resolver := dnssim.NewResolver()
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		n = 0
		err := workload.EmitPDNS(pop, resolver, func(r *pdns.Record) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkFunctionStream measures the emission RNG layer for one function:
// reseed the shard's stream, as emitShard does per function, then
// draw 50 values, about the mean a function draws emitting its PDNS history
// (43.5 at seed 1, scale 0.01; the median is 7). math-rand is the stdlib
// source the streams are defined by; lazyrand yields the same values.
func BenchmarkFunctionStream(b *testing.B) {
	for _, src := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(0)},
		{"lazyrand", lazyrand.New(0)},
	} {
		b.Run(src.name, func(b *testing.B) {
			rng := rand.New(src.src)
			var sum int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i) * 0x5851f42d4c957f2d)
				for d := 0; d < 50; d++ {
					sum += rng.Int63()
				}
			}
			if sum == 0 {
				b.Fatal("no draws")
			}
		})
	}
}

// benchWorkerCounts is the sweep used by the parallel-substrate benchmarks:
// serial baseline, minimal parallelism, full machine.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkEmitPDNSParallel measures the sharded emission path —
// EmitPDNSParallelBatch, the one loop the pipeline emits through — across
// worker counts, into sinks that only count rows. The name is kept so the
// bench-json series continues; points recorded before the scalar
// EmitPDNSParallel was deleted measured per-record scalar sinks, so the
// series has a break there.
func BenchmarkEmitPDNSParallel(b *testing.B) {
	pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.002})
	resolver := dnssim.NewResolver()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sinks := make([]func(*pdns.RecordBatch) error, workers)
			counts := make([]int64, workers)
			for i := range sinks {
				i := i
				sinks[i] = func(bt *pdns.RecordBatch) error { counts[i] += int64(bt.Len()); return nil }
			}
			b.ReportAllocs()
			b.ResetTimer()
			var n int64
			for i := 0; i < b.N; i++ {
				for j := range counts {
					counts[j] = 0
				}
				if err := workload.EmitPDNSParallelBatch(pop, resolver, workers, 0, sinks...); err != nil {
					b.Fatal(err)
				}
				n = 0
				for _, c := range counts {
					n += c
				}
			}
			b.ReportMetric(float64(n), "records/op")
		})
	}
}

// BenchmarkAggregateParallel measures the full substrate→identification hot
// path — emission plus §3.2 aggregation with shard-local aggregators and the
// final merge — across worker counts.
func BenchmarkAggregateParallel(b *testing.B) {
	pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.002})
	resolver := dnssim.NewResolver()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var scanned int64
			for i := 0; i < b.N; i++ {
				ag, err := workload.AggregateParallel(context.Background(), pop, resolver, nil, workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				scanned = ag.Scanned
			}
			b.ReportMetric(float64(scanned), "records/op")
		})
	}
}

// Ablation: resolver-cache model on PDNS counts.
func BenchmarkCacheModel(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", on), func(b *testing.B) {
			pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.001, CacheModel: on})
			resolver := dnssim.NewResolver()
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				workload.EmitPDNS(pop, resolver, func(r *pdns.Record) error {
					total += r.RequestCnt
					return nil
				})
			}
			b.ReportMetric(float64(total), "observed-requests")
		})
	}
}

// Ablation: prober concurrency sweep against the live edge.
func BenchmarkProberConcurrency(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	if len(targets) > 64 {
		targets = targets[:64]
	}
	_, servers := liveEdge(b, r.Population)
	defer servers.Close()
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("c=%d", conc), func(b *testing.B) {
			dial := dialBoth(servers)
			p := probe.New(probe.Config{
				Timeout: time.Second, Concurrency: conc,
				DialContext: dial, DialTLSContext: dial,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ProbeAll(context.Background(), targets)
			}
			b.ReportMetric(float64(len(targets)), "probes/op")
		})
	}
}

// Ablation: probe throughput under the heavy chaos profile with bounded
// retries, across chaos seeds. Different seeds fault different FQDNs, so the
// spread across sub-benchmarks shows how much campaign cost the fault
// schedule itself moves; retries/op makes the absorbed failures visible.
func BenchmarkProbeChaosRetries(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	if len(targets) > 64 {
		targets = targets[:64]
	}
	_, servers := liveEdge(b, r.Population)
	defer servers.Close()
	for _, seed := range []int64{1, 2} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			in := fault.New(fault.Heavy().WithSeed(seed))
			in.SetSpikeDelay(100 * time.Millisecond)
			dial := in.WrapDial(dialBoth(servers))
			p := probe.New(probe.Config{
				Timeout: time.Second, Concurrency: 32,
				Resolve:        in.WrapResolve(nil),
				DialContext:    dial,
				DialTLSContext: dial,
				Retries:        2,
				RetryBackoff:   time.Millisecond,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ProbeAll(context.Background(), targets)
			}
			st := p.Stats()
			b.ReportMetric(float64(len(targets)), "probes/op")
			b.ReportMetric(float64(st.Retried)/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkPipelineEndToEnd runs the whole study at a tiny scale per op.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Seed: int64(i + 1), Scale: 0.0005, SkipC2Scan: true,
			ProbeTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Aggregate.TotalDomains() == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkGeneratePDNSFacade exercises the public dataset API.
func BenchmarkGeneratePDNSFacade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := divecloud.GeneratePDNS(9, 0.0005, func(r *divecloud.Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers ----

// liveEdge deploys the population on a fresh platform behind the in-memory
// edge the pipeline probes.
func liveEdge(b *testing.B, pop *workload.Population) (*faas.Platform, *faas.Edge) {
	b.Helper()
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, c2.DefaultDB())
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 2 * time.Second
	e := faas.StartEdge(gw)
	return platform, e
}

// dialBoth routes port 443 to the edge's HTTPS listener and every other
// port to its plain one. Install it as both DialContext and DialTLSContext:
// the HTTPS listener speaks plain HTTP framing.
func dialBoth(e *faas.Edge) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, _, addr string) (net.Conn, error) {
		if strings.HasSuffix(addr, ":443") {
			return e.DialHTTPS(ctx)
		}
		return e.DialPlain(ctx)
	}
}

// Ablation: LSH-bucketed clustering vs the exact O(n²) agglomerative path.
func BenchmarkClusteringLSH(b *testing.B) {
	docs := clusterCorpus(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(content.ClusterDocsLSH(docs, 0.1)) == 0 {
			b.Fatal("no clusters")
		}
	}
}
