package workload

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dnssim"
	"repro/internal/fault"
	"repro/internal/pdns"
)

// serialAggregate is the reference path: the sequential scalar EmitPDNS,
// each record passed through the mutate hooks, feeding one Aggregator.Add —
// exactly as the pipeline ran before parallelisation and batching.
func serialAggregate(t *testing.T, pop *Population, mutate ...func(*pdns.Record)) *pdns.Aggregate {
	t.Helper()
	w := Window()
	agg := pdns.NewAggregator(nil, w.Start, w.End)
	if err := EmitPDNS(pop, dnssim.NewResolver(), func(r *pdns.Record) error {
		for _, m := range mutate {
			m(r)
		}
		agg.Add(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return agg.Finish()
}

// requireSameAggregate fails t unless got equals want on every observable
// the pipeline derives from an aggregate: the feed counters, per-function
// stats, Table 2 rows, and the Figure 3–5 series — not merely statistically
// close.
func requireSameAggregate(t *testing.T, got, want *pdns.Aggregate) {
	t.Helper()
	if got.Scanned != want.Scanned || got.Matched != want.Matched || got.Dropped != want.Dropped {
		t.Fatalf("scanned/matched/dropped = %d/%d/%d, want %d/%d/%d",
			got.Scanned, got.Matched, got.Dropped, want.Scanned, want.Matched, want.Dropped)
	}
	if !reflect.DeepEqual(got.PerFunctionStats(), want.PerFunctionStats()) {
		t.Error("PerFunctionStats differs from serial pass")
	}
	if !reflect.DeepEqual(analysis.Table2(got), analysis.Table2(want)) {
		t.Error("Table 2 rows differ from serial pass")
	}
	if !reflect.DeepEqual(analysis.NewFQDNsByMonth(got), analysis.NewFQDNsByMonth(want)) {
		t.Error("Figure 3 series differs from serial pass")
	}
	if !reflect.DeepEqual(analysis.InvocationTrend(got), analysis.InvocationTrend(want)) {
		t.Error("Figure 4 series differs from serial pass")
	}
	if !reflect.DeepEqual(analysis.Frequency(got.PerFunctionStats()), analysis.Frequency(want.PerFunctionStats())) {
		t.Error("Figure 5 frequency stats differ from serial pass")
	}
}

// TestAggregateParallelMatchesSerial is the determinism regression for the
// parallel hot path: for every worker count the parallel aggregate must be
// identical to the serial one.
func TestAggregateParallelMatchesSerial(t *testing.T) {
	pop := testPop(t, 0.004)
	want := serialAggregate(t, pop)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := AggregateParallel(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAggregate(t, got, want)
		})
	}
}

// TestEmitPDNSOrderedMatchesSerial checks the stronger guarantee of the
// ordered variant: the record sequence — values and order — equals the
// sequential emission exactly, so dataset files are byte-identical.
func TestEmitPDNSOrderedMatchesSerial(t *testing.T) {
	pop := testPop(t, 0.002)
	var want []pdns.Record
	if err := EmitPDNS(pop, dnssim.NewResolver(), func(r *pdns.Record) error {
		want = append(want, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []pdns.Record
			if err := EmitPDNSOrdered(pop, dnssim.NewResolver(), workers, func(r *pdns.Record) error {
				got = append(got, *r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("emitted %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGenerateWorkerInvariance: the fleet must not depend on the generation
// worker count — every provider draws from its own seed-derived stream.
func TestGenerateWorkerInvariance(t *testing.T) {
	base := Generate(Config{Seed: 11, Scale: 0.003})
	for _, workers := range []int{1, 2, 8} {
		pop := Generate(Config{Seed: 11, Scale: 0.003, Workers: workers})
		if len(pop.Functions) != len(base.Functions) {
			t.Fatalf("workers=%d: %d functions, want %d", workers, len(pop.Functions), len(base.Functions))
		}
		for i := range pop.Functions {
			if !reflect.DeepEqual(pop.Functions[i], base.Functions[i]) {
				t.Fatalf("workers=%d: function %d differs:\n got %+v\nwant %+v",
					workers, i, pop.Functions[i], base.Functions[i])
			}
		}
	}
}

// TestEmitPDNSOrderedSinkError: a sink error stops the ordered emission and
// comes back to the caller.
func TestEmitPDNSOrderedSinkError(t *testing.T) {
	pop := testPop(t, 0.001)
	boom := errors.New("boom")
	if err := EmitPDNSOrdered(pop, dnssim.NewResolver(), 2, func(*pdns.Record) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("ordered sink error: got %v, want %v", err, boom)
	}
}

// TestEmitPDNSParallelBatchMatchesScalar: for every worker count, each
// shard's batch stream must materialise to exactly the records the serial
// scalar EmitPDNS produces for that shard's functions — same values, same
// order. EmitPDNS builds a fresh RNG per function while the batch loop
// reseeds one per shard, so this also pins that the two give one stream.
func TestEmitPDNSParallelBatchMatchesScalar(t *testing.T) {
	pop := testPop(t, 0.002)
	var serial []pdns.Record
	if err := EmitPDNS(pop, dnssim.NewResolver(), func(r *pdns.Record) error {
		serial = append(serial, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want := make([][]pdns.Record, workers)
			for _, r := range serial {
				i := pdns.ShardByFQDN(r.FQDN, workers)
				want[i] = append(want[i], r)
			}

			got := make([][]pdns.Record, workers)
			batchSinks := make([]func(*pdns.RecordBatch) error, workers)
			for i := range batchSinks {
				i := i
				batchSinks[i] = func(b *pdns.RecordBatch) error {
					var rec pdns.Record
					for j := 0; j < b.Len(); j++ {
						b.At(j, &rec)
						got[i] = append(got[i], rec)
					}
					return nil
				}
			}
			// A small batch size forces many flush/Reset cycles per shard.
			if err := EmitPDNSParallelBatch(pop, dnssim.NewResolver(), workers, 64, batchSinks...); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("shard %d: %d batch records, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("shard %d record %d = %+v, want %+v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// TestEmitPDNSParallelBatchSymbolStability pins the DESIGN #26 determinism
// rule at the seam that depends on it: for a fixed worker count, each
// shard's intern table assigns the same symbol to the same string run after
// run, and the raw symbol columns themselves are identical.
func TestEmitPDNSParallelBatchSymbolStability(t *testing.T) {
	pop := testPop(t, 0.002)
	type shardDump struct {
		symbols []pdns.Sym
		strings []string
	}
	run := func(workers int) []shardDump {
		dumps := make([]shardDump, workers)
		tabs := make([]*pdns.Symtab, workers)
		sinks := make([]func(*pdns.RecordBatch) error, workers)
		for i := range sinks {
			i := i
			sinks[i] = func(b *pdns.RecordBatch) error {
				tabs[i] = b.Syms
				dumps[i].symbols = append(dumps[i].symbols, b.FQDN...)
				dumps[i].symbols = append(dumps[i].symbols, b.RData...)
				return nil
			}
		}
		if err := EmitPDNSParallelBatch(pop, dnssim.NewResolver(), workers, 64, sinks...); err != nil {
			t.Fatal(err)
		}
		for i, tab := range tabs {
			for s := 0; s < tab.Len(); s++ {
				dumps[i].strings = append(dumps[i].strings, tab.Lookup(pdns.Sym(s)))
			}
		}
		return dumps
	}
	for _, workers := range []int{1, 2, 8} {
		a, b := run(workers), run(workers)
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("workers=%d shard %d: symbol assignment differs between runs", workers, i)
			}
		}
	}
}

func TestEmitPDNSParallelBatchSinkContract(t *testing.T) {
	pop := testPop(t, 0.001)
	res := dnssim.NewResolver()
	sink := func(*pdns.RecordBatch) error { return nil }
	if err := EmitPDNSParallelBatch(pop, res, 2, 0, sink); err == nil {
		t.Error("1 sink for 2 workers: want error, got nil")
	}
	boom := errors.New("boom")
	bad := func(*pdns.RecordBatch) error { return boom }
	if err := EmitPDNSParallelBatch(pop, res, 2, 0, bad, bad); !errors.Is(err, boom) {
		t.Errorf("sink error: got %v, want %v", err, boom)
	}
}

// TestAggregateParallelMutateHook checks the fault-injection seam: a mutate
// hook corrupting a deterministic fraction of records must give, for every
// worker count, exactly the aggregate of the serial reference — scalar
// EmitPDNS, the same hook per record, Aggregator.Add. Corruption is part of
// the schedule, not of the interleaving, and hooks on batch rows drop
// precisely the rows Record.Validate would.
func TestAggregateParallelMutateHook(t *testing.T) {
	pop := testPop(t, 0.004)
	in := fault.New(fault.Profile{Name: "t", Seed: 7, FeedCorrupt: 0.05})
	mutate := func(r *pdns.Record) { in.CorruptRecord(r) }
	want := serialAggregate(t, pop, mutate)
	if want.Dropped == 0 {
		t.Fatal("corrupting mutate hook dropped no records")
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := AggregateParallel(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil, mutate)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAggregate(t, got, want)
		})
	}

	// The clean aggregate must not see any of this: the hook is opt-in.
	clean, err := AggregateParallel(context.Background(), pop, dnssim.NewResolver(), nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Dropped != 0 {
		t.Errorf("clean run dropped %d records", clean.Dropped)
	}
	if clean.TotalDomains() < want.TotalDomains() {
		t.Errorf("clean domains %d < corrupted domains %d", clean.TotalDomains(), want.TotalDomains())
	}
}
