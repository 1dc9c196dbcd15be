package workload

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dnssim"
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
// bit-identical to the serial scalar pass for any worker count. This is the
// checkpoint coordinator's loop with no checkpoint: the one emission path
// every internal consumer shares.
func EmitPDNSParallelBatch(pop *Population, resolver *dnssim.Resolver, workers, rowsPerBatch int, sinks ...func(*pdns.RecordBatch) error) error {
	workers = normWorkers(workers)
	if len(sinks) != workers {
		return fmt.Errorf("workload: EmitPDNSParallelBatch got %d sinks for %d workers (want exactly %d)", len(sinks), workers, workers)
	}
	c := newEmitCoord(nil, nil, workers)
	for _, err := range c.run(context.Background(), pop, resolver, rowsPerBatch, sinks) {
		if err != nil {
			return err
		}
	}
	return nil
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
// columnar batches (EmitPDNSParallelBatch's loop → Aggregator.AddBatch: no
// channel funnel, no per-record allocation), merged at the end. Because
// functions are sharded by FQDN and every per-FQDN stream is
// order-independent, the result is identical to the serial EmitPDNS →
// Aggregator.Add pass for any worker count.
//
// Each shard aggregator is pre-sized from its expected function count, and
// the merge folds the smaller shards into the largest one instead of
// growing shard 0's maps by the whole fleet — the two fixes for the
// negative scaling the bench history recorded at workers=2.
//
// ctx carries the stage trace: each worker shard records an
// "emit-shard-<i>" span with its record count. reg receives the
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
	return AggregateParallelCkpt(ctx, pop, resolver, matcher, workers, reg, nil, nil, mutate...)
}
