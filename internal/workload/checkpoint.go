package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/dnssim"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// EmitCheckpoint wires mid-emission durability into AggregateParallelCkpt.
// The unit of progress is a whole function: a snapshot is only ever taken
// between functions, when every shard aggregator holds exactly the rows of
// the functions its progress counter covers. Because each function draws
// from its own (seed, FQDN)-keyed RNG stream, a resumed run can skip the
// covered prefix outright — no replay, no RNG cursor bookkeeping — and the
// remaining functions emit byte-identical rows.
type EmitCheckpoint struct {
	// Interval is the row period between snapshots; <= 0 disables periodic
	// snapshots. A cancellation-time snapshot still fires whenever Snapshot
	// is set, so an interrupted run is resumable even at interval 0.
	Interval int64
	// Snapshot persists the emission frontier: functions completed per
	// shard, the shard aggregators (quiescent for the duration of the
	// call), and the global emitted-row count. Errors are the callee's to
	// absorb — emission never aborts on a failed snapshot.
	Snapshot func(progress []int64, shards []*pdns.Aggregator, rows int64) error
	// OnRow observes the global emitted-row count after each append; the
	// crash injector's row-targeted kill point hangs off it.
	OnRow func(n int64)
}

// EmitResume restarts emission from a checkpointed frontier. Progress and
// Shards are indexed by shard and must match the worker count — the run ID
// hashes the worker count, so a mismatch means the caller resumed the wrong
// checkpoint.
type EmitResume struct {
	Rows     int64
	Progress []int64
	Shards   []*pdns.Aggregator
}

// emitShardState is one shard's slot in the coordinator. Its mutex is held
// by the owning worker across each function's emission and by the
// snapshotter while flushing, which is what makes "between functions" a
// real quiescent point rather than a hope.
type emitShardState struct {
	mu       sync.Mutex
	progress int64        // functions fully emitted, guarded by mu
	flush    func() error // drains the pending batch; nil until registered
}

// emitCoord coordinates parallel emission — every internal emission, with
// or without a checkpoint: per-shard function-granularity locking, a global
// row counter, and the snapshot rendezvous. Lock order is snapMu, then
// shard locks ascending; workers only ever take their own shard lock, so
// the rendezvous cannot deadlock.
type emitCoord struct {
	ck      *EmitCheckpoint
	aggs    []*pdns.Aggregator
	shards  []emitShardState
	rows    atomic.Int64
	nextDue atomic.Int64
	snapMu  sync.Mutex
}

// maybeSnapshot takes a periodic snapshot when the row counter has crossed
// the next due mark. Called between functions with no locks held.
func (c *emitCoord) maybeSnapshot() {
	if c.ck == nil || c.ck.Snapshot == nil || c.ck.Interval <= 0 {
		return
	}
	if c.rows.Load() < c.nextDue.Load() {
		return
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.rows.Load() < c.nextDue.Load() {
		return // another worker snapshotted while we waited
	}
	c.snapshotLocked()
	c.nextDue.Store(c.rows.Load() + c.ck.Interval)
}

// snapshotLocked quiesces every shard — acquiring all shard locks, so no
// function is mid-emission anywhere — flushes pending batch rows into the
// aggregators, and hands the frontier to the Snapshot hook. Caller holds
// snapMu.
func (c *emitCoord) snapshotLocked() {
	progress := make([]int64, len(c.shards))
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		if fl := c.shards[i].flush; fl != nil {
			fl()
		}
		progress[i] = c.shards[i].progress
	}
	rows := c.rows.Load()
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	c.ck.Snapshot(progress, c.aggs, rows)
}

// countRow bumps the global row counter and feeds the crash injector.
func (c *emitCoord) countRow() {
	n := c.rows.Add(1)
	if c.ck.OnRow != nil {
		c.ck.OnRow(n)
	}
}

// newEmitCoord builds a coordinator for workers shards. ck may be nil (no
// snapshots, no row accounting); rs, if given, restores each shard's
// function frontier and the global row count.
func newEmitCoord(ck *EmitCheckpoint, rs *EmitResume, workers int) *emitCoord {
	c := &emitCoord{ck: ck, shards: make([]emitShardState, workers)}
	if rs != nil {
		c.rows.Store(rs.Rows)
		for i := range c.shards {
			c.shards[i].progress = rs.Progress[i]
		}
	}
	if ck != nil && ck.Interval > 0 {
		c.nextDue.Store(c.rows.Load() + ck.Interval)
	}
	return c
}

// run emits every shard on its own goroutine, shard i into sinks[i], and
// returns the per-shard errors. Each worker merges a "shard" pprof label
// into whatever labels ctx already carries (core's startStage puts the
// "stage" label there), so profile samples answer "which shard of identify
// burnt the time".
func (c *emitCoord) run(ctx context.Context, pop *Population, resolver *dnssim.Resolver, rowsPerBatch int, sinks []func(*pdns.RecordBatch) error) []error {
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
			errs[wkr] = c.emitShardBatchCkpt(ctx, pop, resolver, wkr, shards[wkr], rowsPerBatch, sinks[wkr])
		}(wkr)
	}
	wg.Wait()
	return errs
}

// emitShardBatchCkpt is the one shard emission loop: batch reuse and flush
// cadence, function-granular locking, resume skip, cancellation checks,
// and row accounting. The shard keeps one RNG and reseeds it per function
// with functionSeed — the same stream functionRNG would build, without
// allocating a fresh 5 KB source for every function.
func (c *emitCoord) emitShardBatchCkpt(ctx context.Context, pop *Population, resolver *dnssim.Resolver, i int, funcs []*Function, rowsPerBatch int, sink func(*pdns.RecordBatch) error) error {
	st := &c.shards[i]
	batch := pdns.NewRecordBatch(rowsPerBatch)
	sc := &emitScratch{}
	rng := rand.New(rand.NewSource(0))
	var fsym pdns.Sym
	counting := c.ck != nil
	row := func(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) error {
		batch.Append(fsym, t, batch.Syms.Intern(rdata), firstUnix, lastUnix, cnt, day)
		if counting {
			c.countRow()
		}
		if batch.Len() >= rowsPerBatch {
			if err := sink(batch); err != nil {
				return err
			}
			batch.Reset()
		}
		return nil
	}
	st.mu.Lock()
	start := st.progress
	st.flush = func() error {
		if batch.Len() == 0 {
			return nil
		}
		err := sink(batch)
		batch.Reset()
		return err
	}
	st.mu.Unlock()

	for fi := int64(0); fi < int64(len(funcs)); fi++ {
		if fi < start {
			continue // durable in the resumed-from run; RNG streams are per-function, so no replay needed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		f := funcs[fi]
		st.mu.Lock()
		fsym = batch.Syms.Intern(f.FQDN)
		rng.Seed(functionSeed(pop.Config.Seed, f.FQDN))
		err := emitFunctionInto(pop, f, resolver, rng, sc, row)
		if err == nil {
			st.progress = fi + 1
		}
		st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("workload: emit %s: %w", f.FQDN, err)
		}
		c.maybeSnapshot()
	}
	st.mu.Lock()
	err := st.flush()
	st.mu.Unlock()
	return err
}

// ctxOnlyErrors reports whether every non-nil shard error is a context
// cancellation — the one failure shape worth checkpointing through.
func ctxOnlyErrors(errs []error) bool {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return false
		}
	}
	return true
}

// AggregateParallelCkpt is AggregateParallel with a durability seam: ck (may
// be nil) snapshots the emission frontier periodically and on cancellation,
// and rs (may be nil) restarts from a snapshotted frontier — restored shard
// aggregators continue accumulating and each shard skips its covered
// function prefix. With both nil the behaviour and output match
// AggregateParallel exactly; with either set, the final Aggregate is still
// byte-identical to an uninterrupted run, because progress is tracked at
// whole-function granularity and per-function RNG streams make emission
// independent of which run emitted the earlier functions.
func AggregateParallelCkpt(ctx context.Context, pop *Population, resolver *dnssim.Resolver, matcher *providers.Matcher, workers int, reg *obs.Registry, ck *EmitCheckpoint, rs *EmitResume, mutate ...func(*pdns.Record)) (*pdns.Aggregate, error) {
	workers = normWorkers(workers)
	if rs != nil && (len(rs.Progress) != workers || len(rs.Shards) != workers) {
		return nil, fmt.Errorf("workload: resume state has %d shards, run has %d workers", len(rs.Progress), workers)
	}
	w := Window()
	aggs := make([]*pdns.Aggregator, workers)
	spans := make([]*obs.Span, workers)
	counts := make([]int64, workers)
	emitVec := reg.CounterVec("workload_emit_records_total", "shard")
	emitted := make([]*obs.Counter, workers)
	// Hash sharding is mildly uneven; a quarter of headroom on the expected
	// per-shard function count avoids both rehashing and gross oversizing.
	expect := len(pop.Functions)/workers + len(pop.Functions)/(4*workers) + 16
	for i := range aggs {
		var agg *pdns.Aggregator
		if rs != nil && rs.Shards[i] != nil {
			agg = rs.Shards[i] // restored state is already sized by its contents
		} else {
			agg = pdns.NewAggregator(matcher, w.Start, w.End)
			agg.Presize(expect)
		}
		shard := fmt.Sprintf("%d", i)
		agg.InstrumentShard(reg, shard)
		aggs[i] = agg
		emitted[i] = emitVec.With(shard)
		_, spans[i] = obs.StartSpan(ctx, fmt.Sprintf("emit-shard-%d", i))
	}
	mWorkers := reg.Gauge("workload_emit_workers")
	mWorkers.Set(int64(workers))

	c := newEmitCoord(ck, rs, workers)
	c.aggs = aggs
	sinks := make([]func(*pdns.RecordBatch) error, workers)
	for i := range sinks {
		agg := aggs[i]
		var rec pdns.Record
		sinks[i] = func(b *pdns.RecordBatch) error {
			if len(mutate) > 0 {
				mutateRows(b, &rec, mutate)
			}
			agg.AddBatch(b)
			n := int64(b.Len())
			counts[i] += n
			emitted[i].Add(n)
			return nil
		}
	}
	errs := c.run(ctx, pop, resolver, pdns.DefaultBatchRows, sinks)

	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	// A cancelled run gets one final snapshot so -resume can pick up from
	// the exact interruption point; any real emission error skips it.
	if err != nil && ctx.Err() != nil && ck != nil && ck.Snapshot != nil && ctxOnlyErrors(errs) {
		c.snapMu.Lock()
		c.snapshotLocked()
		c.snapMu.Unlock()
	}
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
