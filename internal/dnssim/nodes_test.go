package dnssim

import (
	"math"
	"testing"

	"repro/internal/pdns"
	"repro/internal/providers"
)

// TestNodeTablesMatchSynthesis checks every node table of every policy and
// region against direct synthesis: the pool size is NodeCount's, a type
// without nodes has no table, and each slot holds exactly the answer
// syntheticIPv4/IPv6 or cname builds for its index. AWS pools run to
// thousands of nodes, so only their first and last 64 slots are checked.
func TestNodeTablesMatchSynthesis(t *testing.T) {
	r := NewResolver()
	for _, in := range providers.Collected() {
		pol, ok := PolicyFor(in.ID)
		if !ok {
			t.Fatalf("no policy for %s", in.Name)
		}
		if len(in.Regions) == 0 {
			t.Fatalf("%s lists no regions", in.Name)
		}
		for _, region := range in.Regions {
			tabs := r.tablesFor(pol, region)
			synthRegion := region
			if pol.Anycast {
				synthRegion = "global"
			}
			for i, rt := range slotTypes {
				n, tab := pol.NodeCount(rt, region), tabs[i]
				if n <= 0 {
					if tab != nil {
						t.Errorf("%s %s %v: table of %d nodes, NodeCount 0", in.Name, region, rt, len(tab.slots))
					}
					continue
				}
				if tab == nil || len(tab.slots) != n || tab.t != rt {
					t.Fatalf("%s %s %v: table %+v, want %d %v nodes", in.Name, region, rt, tab, n, rt)
				}
				for idx := 0; idx < n; idx++ {
					if in.ID == providers.AWS && idx == 64 && n > 128 {
						idx = n - 64
					}
					owner := pol.nodeOwner(idx)
					want := Answer{RType: rt, Owner: owner, TTL: pol.ttl()}
					switch rt {
					case pdns.TypeA:
						want.RData = syntheticIPv4(pol.Provider, owner, synthRegion, idx)
					case pdns.TypeAAAA:
						want.RData = syntheticIPv6(pol.Provider, owner, synthRegion, idx)
					case pdns.TypeCNAME:
						want.RData = pol.cname(synthRegion, idx)
					}
					// Twice: the first-fill path, then the memo.
					for k := 0; k < 2; k++ {
						if got := *tab.answer(idx); got != want {
							t.Fatalf("%s %s %v node %d: table %+v, synthesis %+v", in.Name, region, rt, idx, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNodeTableTotalIsHarmonic pins a table's draw total to the harmonic
// number computed term by term, bit for bit: the node draw scales its
// uniform by this total, so any other rounding would move node picks.
func TestNodeTableTotalIsHarmonic(t *testing.T) {
	pol, _ := PolicyFor(providers.Oracle)
	var h float64
	for n := 1; n <= 3000; n++ {
		h += 1 / float64(n)
		if got := newNodeTable(pol, pdns.TypeA, "us-ashburn-1", n).total; math.Float64bits(got) != math.Float64bits(h) {
			t.Fatalf("n=%d: table total %v, harmonic %v", n, got, h)
		}
	}
}
