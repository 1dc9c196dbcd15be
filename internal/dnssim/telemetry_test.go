package dnssim_test

import (
	"testing"

	"repro/internal/dnssim"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/workload"
)

// TestProviderSeriesCountEmission checks the per-provider series over a
// scale-0.01 emission against counts taken from the emitted rows: every
// row is one successful resolution, so each provider misses the lookup
// cache once per distinct name, hits it on every other row, and answers
// each record type once per row of that type.
func TestProviderSeriesCountEmission(t *testing.T) {
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.01})
	provider := make(map[string]string, len(pop.Functions))
	for _, f := range pop.Functions {
		provider[f.FQDN] = providers.Get(f.Provider).Name
	}
	reg := obs.NewRegistry()
	r := dnssim.NewResolver()
	r.Instrument(reg)

	lookups := map[[2]string]int64{}
	answers := map[[2]string]int64{}
	seen := map[string]bool{}
	err := workload.EmitPDNSOrdered(pop, r, 2, func(rec *pdns.Record) error {
		p := provider[rec.FQDN]
		if seen[rec.FQDN] {
			lookups[[2]string{p, "hit"}]++
		} else {
			seen[rec.FQDN] = true
			lookups[[2]string{p, "miss"}]++
		}
		answers[[2]string{p, rec.RType.String()}]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("emission produced no rows")
	}

	snap := reg.Snapshot()
	for name, want := range map[string]map[[2]string]int64{
		"dnssim_lookups_total": lookups,
		"dnssim_answers_total": answers,
	} {
		got := snap.CounterVecs[name].Series
		for key, v := range got {
			labels := obs.SplitSeriesKey(key)
			if w := want[[2]string{labels[0], labels[1]}]; v != w {
				t.Errorf("%s%v = %d, want %d", name, labels, v, w)
			}
		}
		for k, w := range want {
			if _, ok := got[obs.JoinSeriesKey(k[:])]; !ok {
				t.Errorf("%s%v missing, want %d", name, k, w)
			}
		}
	}
}
