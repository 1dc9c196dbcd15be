package dnssim_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnssim"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/workload"
)

// TestSessionMatchesPerQueryReference runs every function of a scale-0.01
// population through a session on one resolver and through the per-query
// reference on another, with equal RNG streams: each query must give the
// same answer or the same error, each stream must be left in the same
// state, and the two registries must end with the same dnssim counters.
// The population's deleted functions are marked on both resolvers first,
// so Tencent's NXDOMAIN path is covered too, and the type cycle includes
// types a provider has no nodes for and one no policy answers.
func TestSessionMatchesPerQueryReference(t *testing.T) {
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.01})
	sessR, refR := dnssim.NewResolver(), dnssim.NewResolver()
	sessReg, refReg := obs.NewRegistry(), obs.NewRegistry()
	sessR.Instrument(sessReg)
	refR.Instrument(refReg)
	if workload.MarkDeleted(pop, sessR) == 0 || workload.MarkDeleted(pop, refR) == 0 {
		t.Fatal("population has no deleted functions")
	}
	types := []pdns.RType{pdns.TypeA, pdns.TypeCNAME, pdns.TypeA, pdns.TypeAAAA, pdns.TypeA, pdns.RType(16)}
	var answered, failed int
	for fi, f := range pop.Functions {
		sr, rr := rand.New(rand.NewSource(int64(fi))), rand.New(rand.NewSource(int64(fi)))
		s := sessR.Session(f.FQDN)
		for q := 0; q < 9; q++ {
			rt := types[(fi+q)%len(types)]
			got, gerr := s.ResolveRType(rt, sr)
			want, werr := dnssim.RefResolveRType(refR, f.FQDN, rt, rr)
			if errString(gerr) != errString(werr) || got != want {
				t.Fatalf("%s query %d (%v): session %+v, %v; reference %+v, %v", f.FQDN, q, rt, got, gerr, want, werr)
			}
			if gerr != nil {
				failed++
			} else {
				answered++
			}
		}
		s.Close()
		if g, w := sr.Int63(), rr.Int63(); g != w {
			t.Fatalf("%s: RNG stream diverged after the session (%d vs %d)", f.FQDN, g, w)
		}
	}
	if answered == 0 || failed == 0 {
		t.Fatalf("answered %d, failed %d: want both paths covered", answered, failed)
	}
	got, want := dnssimCounters(sessReg.Snapshot()), dnssimCounters(refReg.Snapshot())
	if len(want) != 4 {
		t.Fatalf("reference registry has dnssim series %v, want 2 counters and 2 vectors", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dnssim counters: session %v, reference %v", got, want)
	}
}

// TestSessionSeesMidSessionDeletion marks each provider's name deleted
// between two queries of one session: deletion is checked per query, so
// Tencent, the one provider without a wildcard record, must answer NXDOMAIN
// at once, and every wildcard provider must keep answering.
func TestSessionSeesMidSessionDeletion(t *testing.T) {
	r := dnssim.NewResolver()
	rng := rand.New(rand.NewSource(3))
	for _, in := range providers.Collected() {
		fqdn := in.Generate(rng, "")
		s := r.Session(fqdn)
		if _, err := s.ResolveRType(pdns.TypeA, rng); err != nil {
			t.Fatalf("%s: first query: %v", in.Name, err)
		}
		r.MarkDeleted(fqdn)
		_, err := s.ResolveRType(pdns.TypeA, rng)
		s.Close()
		switch {
		case in.WildcardDNS && err != nil:
			t.Errorf("%s has a wildcard record but answered %v after deletion", in.Name, err)
		case !in.WildcardDNS && !errors.Is(err, dnssim.ErrNXDomain):
			t.Errorf("%s: query after deletion = %v, want NXDOMAIN", in.Name, err)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dnssimCounters returns the snapshot's dnssim_* counters and vectors.
func dnssimCounters(s obs.Snapshot) map[string]any {
	out := map[string]any{}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "dnssim_") {
			out[name] = v
		}
	}
	for name, v := range s.CounterVecs {
		if strings.HasPrefix(name, "dnssim_") {
			out[name] = v.Series
		}
	}
	return out
}
