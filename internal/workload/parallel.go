package workload

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/dnssim"
	"repro/internal/lazyrand"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// normWorkers clamps a worker count: <= 0 selects GOMAXPROCS.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// shardFunctions pre-shards the function list by pdns.ShardByFQDN so each
// worker walks only its own functions, in population (FQDN-sorted) order.
func shardFunctions(pop *Population, workers int) [][]*Function {
	shards := make([][]*Function, workers)
	for _, f := range pop.Functions {
		s := pdns.ShardByFQDN(f.FQDN, workers)
		shards[s] = append(shards[s], f)
	}
	return shards
}

// emitShards runs the one sharded emission loop: every shard on its own
// goroutine, shard i into sinks[i], and returns the first shard's error in
// shard order. Each worker merges a "shard" pprof label into whatever
// labels ctx already carries (core's stage loop puts the "stage" label
// there), so profile samples answer "which shard of identify burnt the
// time".
func emitShards(ctx context.Context, pop *Population, resolver *dnssim.Resolver, rowsPerBatch int, sinks []func(*pdns.RecordBatch) error) error {
	if rowsPerBatch <= 0 {
		rowsPerBatch = pdns.DefaultBatchRows
	}
	shards := shardFunctions(pop, len(sinks))
	errs := make([]error, len(sinks))
	var wg sync.WaitGroup
	for wkr := range sinks {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("shard", fmt.Sprintf("%d", wkr))))
			errs[wkr] = emitShard(ctx, pop, resolver, shards[wkr], rowsPerBatch, sinks[wkr])
		}(wkr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// emitShard emits one shard's functions into a reused batch, flushing it
// to sink every rowsPerBatch rows and once at the end. It checks ctx
// between functions, so a cancelled run stops within one function's
// history. The shard keeps one RNG and reseeds it per function with
// functionSeed — the same stream functionRNG would build, without
// allocating a fresh 5 KB source for every function.
func emitShard(ctx context.Context, pop *Population, resolver *dnssim.Resolver, funcs []*Function, rowsPerBatch int, sink func(*pdns.RecordBatch) error) error {
	batch := pdns.NewRecordBatch(rowsPerBatch)
	sc := &emitScratch{}
	rng := rand.New(lazyrand.New(0))
	var fsym pdns.Sym
	row := func(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) error {
		batch.Append(fsym, t, batch.Syms.Intern(rdata), firstUnix, lastUnix, cnt, day)
		if batch.Len() >= rowsPerBatch {
			if err := sink(batch); err != nil {
				return err
			}
			batch.Reset()
		}
		return nil
	}
	for _, f := range funcs {
		if err := ctx.Err(); err != nil {
			return err
		}
		fsym = batch.Syms.Intern(f.FQDN)
		rng.Seed(functionSeed(pop.Config.Seed, f.FQDN))
		if err := emitFunctionInto(pop, f, resolver, rng, sc, row); err != nil {
			return fmt.Errorf("workload: emit %s: %w", f.FQDN, err)
		}
	}
	if batch.Len() == 0 {
		return nil
	}
	return sink(batch)
}

// EmitPDNSParallelBatch emits the population's PDNS history as columnar
// batches across a pool of workers. Functions are sharded by
// pdns.ShardByFQDN, so all records of one function stay on one worker and
// arrive in their serial order; because every function draws from its own
// (seed, FQDN)-seeded RNG stream, each row is identical to what EmitPDNS
// produces — only the interleaving across functions differs.
//
// Each worker fills a shard-local pdns.RecordBatch — FQDNs and rdata
// interned into the batch's own Symtab, numeric columns appended in place —
// and flushes it to its sink every rowsPerBatch rows plus once at stream
// end. The batch (and its intern table) is reused across flushes, so sinks
// must consume rows before returning; symbol IDs are stable for the
// lifetime of the shard's stream. rowsPerBatch <= 0 selects
// pdns.DefaultBatchRows.
//
// Exactly one sink per worker is required (sink i sees shard i from a
// single goroutine), so shard-local aggregation of the batches is
// bit-identical to the serial scalar pass for any worker count. It runs
// emitShards, the one emission loop AggregateParallel shares.
func EmitPDNSParallelBatch(pop *Population, resolver *dnssim.Resolver, workers, rowsPerBatch int, sinks ...func(*pdns.RecordBatch) error) error {
	workers = normWorkers(workers)
	if len(sinks) != workers {
		return fmt.Errorf("workload: EmitPDNSParallelBatch got %d sinks for %d workers (want exactly %d)", len(sinks), workers, workers)
	}
	return emitShards(context.Background(), pop, resolver, rowsPerBatch, sinks)
}

// EmitPDNSOrdered produces the exact record sequence of EmitPDNS — same
// records, same order, byte-identical output — while generating the
// per-function streams on a worker pool. It exists for sinks that care
// about stream order (dataset writers); consumers that aggregate should
// prefer EmitPDNSParallelBatch, which never buffers. The sink is always called
// from the caller's goroutine. workers <= 0 selects GOMAXPROCS.
func EmitPDNSOrdered(pop *Population, resolver *dnssim.Resolver, workers int, sink func(*pdns.Record) error) error {
	workers = normWorkers(workers)
	if workers == 1 {
		return EmitPDNS(pop, resolver, sink)
	}

	// Batched fan-out: fill per-function record buffers in parallel, flush
	// them in population order, repeat. The batch barrier keeps memory
	// bounded to batch-size function histories while the flush of batch k
	// overlaps nothing — in practice generation dominates, so the barrier
	// costs a few percent, not the parallelism.
	const batchPerWorker = 16
	batch := workers * batchPerWorker
	bufs := make([][]pdns.Record, batch)
	errsBuf := make([]error, batch)
	for lo := 0; lo < len(pop.Functions); lo += batch {
		hi := lo + batch
		if hi > len(pop.Functions) {
			hi = len(pop.Functions)
		}
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				for i := lo + wkr; i < hi; i += workers {
					f := pop.Functions[i]
					buf := bufs[i-lo][:0]
					err := emitFunction(pop, f, resolver, functionRNG(pop.Config.Seed, f.FQDN), func(r *pdns.Record) error {
						buf = append(buf, *r)
						return nil
					})
					bufs[i-lo] = buf
					if err != nil {
						errsBuf[i-lo] = fmt.Errorf("workload: emit %s: %w", f.FQDN, err)
					}
				}
			}(wkr)
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			if err := errsBuf[i-lo]; err != nil {
				return err
			}
			for j := range bufs[i-lo] {
				if err := sink(&bufs[i-lo][j]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AggregateParallel runs the whole substrate→identification hot path —
// synthetic PDNS emission plus §3.2 aggregation — on a worker pool: one
// shard-local pdns.Aggregator per worker fed directly by that worker's
// columnar batches (emitShards → Aggregator.AddBatch: no channel funnel,
// no per-record allocation), merged at the end. Because functions are
// sharded by FQDN and every per-FQDN stream is order-independent, the
// result is identical to the serial EmitPDNS → Aggregator.Add pass for any
// worker count.
//
// Each shard aggregator is pre-sized from its expected function count, and
// the merge folds the smaller shards into the largest one instead of
// growing shard 0's maps by the whole fleet — the two fixes for the
// negative scaling the bench history recorded at workers=2.
//
// ctx carries the stage trace: each worker shard records an
// "emit-shard-<i>" span with its record count. Every shard checks ctx
// between functions, so cancelling it stops emission promptly and returns
// the context's error with no aggregate. reg receives the
// aggregators' shared throughput counters; both may be nil. A nil matcher
// selects all collected providers.
//
// mutate hooks, if given, run on each row before aggregation — the
// fault-injection layer uses one to corrupt a deterministic fraction of the
// feed (mangled rows then fail validation inside the aggregator and are
// counted as dropped, exactly as a real feed's garbage rows would be). Rows
// are materialised into a scalar record for the hooks and written back
// into the batch, so hooks see exactly the records EmitPDNS would deliver.
// A hook must be safe for concurrent calls; each record it sees is owned by
// the current worker for the duration of the call.
func AggregateParallel(ctx context.Context, pop *Population, resolver *dnssim.Resolver, matcher *providers.Matcher, workers int, reg *obs.Registry, mutate ...func(*pdns.Record)) (*pdns.Aggregate, error) {
	workers = normWorkers(workers)
	w := Window()
	aggs := make([]*pdns.Aggregator, workers)
	spans := make([]*obs.Span, workers)
	counts := make([]int64, workers)
	emitVec := reg.CounterVec("workload_emit_records_total", "shard")
	sinks := make([]func(*pdns.RecordBatch) error, workers)
	// Hash sharding is mildly uneven; a quarter of headroom on the expected
	// per-shard function count avoids both rehashing and gross oversizing.
	expect := len(pop.Functions)/workers + len(pop.Functions)/(4*workers) + 16
	for i := range aggs {
		agg := pdns.NewAggregator(matcher, w.Start, w.End)
		agg.Presize(expect)
		shard := fmt.Sprintf("%d", i)
		agg.InstrumentShard(reg, shard)
		aggs[i] = agg
		emitted := emitVec.With(shard)
		_, spans[i] = obs.StartSpan(ctx, fmt.Sprintf("emit-shard-%d", i))
		var rec pdns.Record
		sinks[i] = func(b *pdns.RecordBatch) error {
			if len(mutate) > 0 {
				mutateRows(b, &rec, mutate)
			}
			agg.AddBatch(b)
			n := int64(b.Len())
			counts[i] += n
			emitted.Add(n)
			return nil
		}
	}
	reg.Gauge("workload_emit_workers").Set(int64(workers))

	err := emitShards(ctx, pop, resolver, pdns.DefaultBatchRows, sinks)
	for i, sp := range spans {
		sp.SetAttr("records", counts[i])
		sp.SetError(err)
		sp.End()
	}
	if err != nil {
		return nil, err
	}

	finished := make([]*pdns.Aggregate, workers)
	for i, a := range aggs {
		finished[i] = a.Finish()
	}
	base := 0
	for i, ag := range finished {
		if ag.TotalDomains() > finished[base].TotalDomains() {
			base = i
		}
	}
	out := finished[base]
	for i, ag := range finished {
		if i == base {
			continue
		}
		if merr := out.Merge(ag); merr != nil {
			return nil, merr
		}
	}
	return out, nil
}

// mutateRows runs the hooks over every row of b in place: each row is
// materialised into rec, mutated, and written back (Set re-interns any
// string a hook changed), so AddBatch's rowValid drops a mangled row
// exactly where Record.Validate would have.
func mutateRows(b *pdns.RecordBatch, rec *pdns.Record, mutate []func(*pdns.Record)) {
	for i := 0; i < b.Len(); i++ {
		b.At(i, rec)
		for _, m := range mutate {
			m(rec)
		}
		b.Set(i, rec)
	}
}

// EmitCheckpoint and EmitResume are empty placeholders, and
// AggregateParallelCkpt forwards to AggregateParallel, for one caller: the
// benchmark module's feed child (scfbench/child.go), which is built from
// the same checkout and still passes (nil, nil). Checkpoints are taken at
// stage boundaries only, so emission has nothing to snapshot or resume.
type (
	EmitCheckpoint struct{}
	EmitResume     struct{}
)

// AggregateParallelCkpt is AggregateParallel; ck and rs are ignored.
func AggregateParallelCkpt(ctx context.Context, pop *Population, resolver *dnssim.Resolver, matcher *providers.Matcher, workers int, reg *obs.Registry, ck *EmitCheckpoint, rs *EmitResume, mutate ...func(*pdns.Record)) (*pdns.Aggregate, error) {
	return AggregateParallel(ctx, pop, resolver, matcher, workers, reg, mutate...)
}
