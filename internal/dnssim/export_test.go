package dnssim

import (
	"fmt"
	"math/rand"

	"repro/internal/pdns"
	"repro/internal/providers"
)

// RefResolveRType is the per-query resolution that sessions replaced, kept
// as their differential oracle: every query looks the name up (counting
// the hit or miss), checks deletion, draws its node, synthesises the answer
// afresh with no memo and counts it at once.
func RefResolveRType(r *Resolver, fqdn string, t pdns.RType, rng *rand.Rand) (Answer, error) {
	cl := r.lookup(fqdn)
	if err := r.check(fqdn, cl); err != nil {
		return Answer{}, err
	}
	p, region := cl.pol, cl.region
	n := p.NodeCount(t, region)
	if n <= 0 {
		return Answer{}, fmt.Errorf("dnssim: %s has no %v ingress nodes in %q", p.Provider, t, region)
	}
	idx := refPickNode(p, n, rng)
	if p.Anycast {
		region = "global"
	}
	a := refSynth(p, t, region, idx)
	cl.series.ans[rtypeSlot(t)].Inc()
	return a, nil
}

// refPickNode is the node draw with the harmonic total recomputed per call.
func refPickNode(p *Policy, n int, rng *rand.Rand) int {
	if n == 1 {
		return 0
	}
	if p.Provider == providers.AWS || p.Anycast {
		return rng.Intn(n)
	}
	x := rng.Float64() * harmonic(n)
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// refSynth synthesises node idx's answer directly, without a node table.
func refSynth(p *Policy, t pdns.RType, region string, idx int) Answer {
	owner := p.nodeOwner(idx)
	a := Answer{RType: t, Owner: owner, TTL: p.ttl()}
	switch t {
	case pdns.TypeA:
		a.RData = syntheticIPv4(p.Provider, owner, region, idx)
	case pdns.TypeAAAA:
		a.RData = syntheticIPv6(p.Provider, owner, region, idx)
	case pdns.TypeCNAME:
		a.RData = p.cname(region, idx)
	}
	return a
}
