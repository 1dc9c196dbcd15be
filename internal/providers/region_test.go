package providers_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/providers"
	"repro/internal/workload"
)

// checkIdentifyRegion pins IdentifyRegion, the one-match call the resolver
// and both aggregator paths use, against the two-match reference Identify +
// Parse().Region.
func checkIdentifyRegion(t *testing.T, m *providers.Matcher, fqdn string) {
	t.Helper()
	in, region, ok := m.IdentifyRegion(fqdn)
	want, wok := m.Identify(fqdn)
	if ok != wok || in != want {
		t.Fatalf("IdentifyRegion(%q) = %v, %v; Identify = %v, %v", fqdn, in, ok, want, wok)
	}
	wantRegion := ""
	if wok {
		p, pok := want.Parse(fqdn)
		if !pok {
			t.Fatalf("Identify matched %q but Parse rejects it", fqdn)
		}
		wantRegion = p.Region
	}
	if region != wantRegion {
		t.Fatalf("IdentifyRegion(%q) region = %q, Parse = %q", fqdn, region, wantRegion)
	}
}

// TestRegionMatchesParse covers every provider format: random
// domains, every enumerated region, case and trailing-dot noise (the
// normalisation Parse applies), and short or degenerate hosts for the
// length-guarded formats.
func TestRegionMatchesParse(t *testing.T) {
	m := providers.NewMatcher(nil)
	rng := rand.New(rand.NewSource(7))
	for _, in := range providers.Collected() {
		var domains []string
		for i := 0; i < 50; i++ {
			domains = append(domains, in.Generate(rng, ""))
		}
		for _, r := range in.Regions {
			domains = append(domains, in.Generate(rng, r))
		}
		for i := 0; i < 10; i++ {
			d := in.Generate(rng, "")
			domains = append(domains, strings.ToUpper(d), d+".")
		}
		domains = append(domains,
			"a."+in.DomainSuffix,
			"ab-cd."+in.DomainSuffix,
			in.DomainSuffix,
		)
		for _, d := range domains {
			checkIdentifyRegion(t, m, d)
		}
	}
}

// TestIdentifyRegionPopulation runs the same check over every function
// name of a scale-0.1 population, with case and trailing-dot noise on each.
func TestIdentifyRegionPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a scale-0.1 population")
	}
	m := providers.NewMatcher(nil)
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.1})
	if len(pop.Functions) < 10000 {
		t.Fatalf("population has %d functions, want a scale-0.1 fleet", len(pop.Functions))
	}
	for _, f := range pop.Functions {
		for _, d := range []string{f.FQDN, strings.ToUpper(f.FQDN), f.FQDN + "."} {
			checkIdentifyRegion(t, m, d)
		}
	}
}

// TestRegionForeignDomains: names no provider matches yield no
// provider and no region.
func TestRegionForeignDomains(t *testing.T) {
	m := providers.NewMatcher(nil)
	for _, d := range []string{
		"www.example.com", "", "..", "a-b-c", strings.Repeat("x.", 40),
		"1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com.evil.example",
	} {
		if _, _, ok := m.IdentifyRegion(d); ok {
			t.Errorf("IdentifyRegion(%q) matched", d)
		}
		checkIdentifyRegion(t, m, d)
	}
}

// TestRegionAllocFree: identifying an already-lowercase FQDN and
// reading its region must not allocate — this is what lets the aggregation
// hot path call it per distinct symbol without undoing the zero-alloc batch
// work.
func TestRegionAllocFree(t *testing.T) {
	m := providers.NewMatcher(nil)
	rng := rand.New(rand.NewSource(8))
	for _, in := range providers.Collected() {
		d := in.Generate(rng, "")
		if n := testing.AllocsPerRun(100, func() { m.IdentifyRegion(d) }); n > 0 {
			t.Errorf("%s: IdentifyRegion allocates %.1f per call", in.Name, n)
		}
	}
}
