package dnssim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pdns"
	"repro/internal/providers"
)

func TestPolicyCoverage(t *testing.T) {
	for _, in := range providers.Collected() {
		pol, ok := PolicyFor(in.ID)
		if !ok {
			t.Fatalf("no policy for %s", in.Name)
		}
		sum := pol.AShare + pol.AAAAShare + pol.CNAMEShare
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: rtype shares sum to %v", in.Name, sum)
		}
	}
	if _, ok := PolicyFor(providers.Azure); ok {
		t.Error("Azure should have no policy (excluded from collection)")
	}
}

func TestSampleRTypeMatchesTable2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for _, tc := range []struct {
		id             provider
		a, aaaa, cname float64
	}{
		{providers.Aliyun, 0.2796, 0, 0.7204},
		{providers.AWS, 0.7673, 0.2327, 0},
		{providers.Google2, 0.6675, 0.3325, 0},
		{providers.IBM, 0.1015, 0.0230, 0.8755},
		{providers.Kingsoft, 1, 0, 0},
	} {
		pol, _ := PolicyFor(tc.id)
		counts := map[pdns.RType]int{}
		for i := 0; i < n; i++ {
			counts[pol.SampleRType(rng)]++
		}
		check := func(name string, got int, want float64) {
			frac := float64(got) / n
			if math.Abs(frac-want) > 0.01 {
				t.Errorf("%v %s share = %.4f, want %.4f", tc.id, name, frac, want)
			}
		}
		check("A", counts[pdns.TypeA], tc.a)
		check("AAAA", counts[pdns.TypeAAAA], tc.aaaa)
		check("CNAME", counts[pdns.TypeCNAME], tc.cname)
	}
}

type provider = providers.ID

func TestResolveDeterministicRData(t *testing.T) {
	r := NewResolver()
	rng := rand.New(rand.NewSource(5))
	fqdn := providers.Get(providers.Tencent).Generate(rng, "ap-guangzhou")
	seen := map[string]Answer{}
	for i := 0; i < 500; i++ {
		a, err := r.Resolve(fqdn, rng)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[a.RData]; ok && prev.RType != a.RType {
			t.Fatalf("rdata %q served with two rtypes", a.RData)
		}
		seen[a.RData] = a
	}
	// Tencent within one region: 2 A + 2 CNAME nodes at most.
	if len(seen) > 4 {
		t.Errorf("Tencent region served %d distinct rdata, want <= 4", len(seen))
	}
	// The primary CNAME must carry the geographic label of the region.
	found := false
	for rd, a := range seen {
		if a.RType == pdns.TypeCNAME && rd == "gz.scf.tencentcs.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected gz.scf.tencentcs.com CNAME for ap-guangzhou, got %v", keys(seen))
	}
}

func keys(m map[string]Answer) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRegionalConsistency(t *testing.T) {
	// Two functions in the same region share the same ingress set; a
	// function in another region does not (Finding 2).
	r := NewResolver()
	rng := rand.New(rand.NewSource(6))
	in := providers.Get(providers.Aliyun)
	f1 := in.Generate(rng, "cn-shanghai")
	f2 := in.Generate(rng, "cn-shanghai")
	f3 := in.Generate(rng, "eu-west-1")
	set := func(fqdn string) map[string]bool {
		s := map[string]bool{}
		for i := 0; i < 400; i++ {
			a, err := r.Resolve(fqdn, rng)
			if err != nil {
				t.Fatal(err)
			}
			s[a.RData] = true
		}
		return s
	}
	s1, s2, s3 := set(f1), set(f2), set(f3)
	for rd := range s1 {
		if !s2[rd] {
			t.Errorf("same-region functions disagree on ingress %q", rd)
		}
	}
	for rd := range s3 {
		if s1[rd] {
			t.Errorf("cross-region functions share ingress %q", rd)
		}
	}
}

func TestAnycastIgnoresRegion(t *testing.T) {
	r := NewResolver()
	rng := rand.New(rand.NewSource(7))
	in := providers.Get(providers.Google)
	f1 := in.Generate(rng, "us-central1")
	f2 := in.Generate(rng, "asia-east1")
	a1 := map[string]bool{}
	a2 := map[string]bool{}
	for i := 0; i < 300; i++ {
		x, err := r.Resolve(f1, rng)
		if err != nil {
			t.Fatal(err)
		}
		a1[x.RData] = true
		y, err := r.Resolve(f2, rng)
		if err != nil {
			t.Fatal(err)
		}
		a2[y.RData] = true
	}
	if len(a1) > 2 || len(a2) > 2 { // 1 IPv4 + 1 IPv6
		t.Errorf("Google should have a single anycast node per family, got %d/%d", len(a1), len(a2))
	}
	for rd := range a1 {
		if !a2[rd] {
			t.Errorf("anycast nodes differ across regions: %q", rd)
		}
	}
}

func TestTencentDeletionNXDomain(t *testing.T) {
	r := NewResolver()
	rng := rand.New(rand.NewSource(8))
	tencent := providers.Get(providers.Tencent).Generate(rng, "ap-beijing")
	aws := providers.Get(providers.AWS).Generate(rng, "us-east-1")
	r.MarkDeleted(tencent)
	r.MarkDeleted(aws)
	if _, err := r.Resolve(tencent, rng); !errors.Is(err, ErrNXDomain) {
		t.Errorf("deleted Tencent function resolved: %v", err)
	}
	if _, err := r.Resolve(aws, rng); err != nil {
		t.Errorf("deleted AWS function should still resolve via wildcard: %v", err)
	}
	if !r.Deleted(tencent) || r.Deleted("other.example") {
		t.Error("Deleted bookkeeping wrong")
	}
}

func TestResolveNonFunction(t *testing.T) {
	r := NewResolver()
	rng := rand.New(rand.NewSource(9))
	if _, err := r.Resolve("www.example.com", rng); !errors.Is(err, ErrNXDomain) {
		t.Errorf("non-function domain resolved: %v", err)
	}
}

func TestThirdPartyOwnership(t *testing.T) {
	r := NewResolver()
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		id        providers.ID
		region    string
		wantThird bool
	}{
		{providers.Baidu, "bj", true},
		{providers.Kingsoft, "cn-beijing-6", true},
		{providers.IBM, "eu-gb", true},
		{providers.AWS, "us-east-1", false},
		{providers.Aliyun, "cn-shanghai", false},
	}
	for _, c := range cases {
		fqdn := providers.Get(c.id).Generate(rng, c.region)
		sawThird := false
		for i := 0; i < 200; i++ {
			a, err := r.Resolve(fqdn, rng)
			if err != nil {
				t.Fatal(err)
			}
			if a.Owner.ThirdParty() {
				sawThird = true
			}
		}
		if sawThird != c.wantThird {
			t.Errorf("%v third-party ingress = %v, want %v", c.id, sawThird, c.wantThird)
		}
	}
}

func TestAWSDispersion(t *testing.T) {
	// AWS Tokyo should expose far more ingress nodes than a concentrated
	// provider over the same number of queries.
	r := NewResolver()
	rng := rand.New(rand.NewSource(11))
	aws := providers.Get(providers.AWS).Generate(rng, "ap-northeast-1")
	distinct := map[string]bool{}
	for i := 0; i < 3000; i++ {
		a, err := r.Resolve(aws, rng)
		if err != nil {
			t.Fatal(err)
		}
		distinct[a.RData] = true
	}
	if len(distinct) < 1000 {
		t.Errorf("AWS Tokyo exposed %d nodes over 3000 queries, want >= 1000", len(distinct))
	}
}

func TestObservedQueries(t *testing.T) {
	if got := ObservedQueries(0, 86400, 60); got != 0 {
		t.Errorf("zero invocations observed %d times", got)
	}
	if got := ObservedQueries(5, 0, 60); got != 5 {
		t.Errorf("zero active time should pass through, got %d", got)
	}
	// Heavy traffic in few windows collapses to roughly windows queries.
	got := ObservedQueries(1_000_000, 3600, 60)
	if got < 55 || got > 60 {
		t.Errorf("1M invocations/hour with 60s TTL observed %d, want ~60", got)
	}
	// Sparse traffic is barely cached.
	got = ObservedQueries(3, 86400, 60)
	if got != 3 {
		t.Errorf("sparse invocations observed %d, want 3", got)
	}
}

// Property: caching never inflates counts and never erases activity.
func TestQuickObservedBounds(t *testing.T) {
	f := func(inv uint16, secs uint16, ttl uint8) bool {
		invocations := int64(inv)
		obs := ObservedQueries(invocations, float64(secs), float64(ttl))
		if invocations == 0 {
			return obs == 0
		}
		return obs >= 1 && obs <= invocations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOwnerString(t *testing.T) {
	for o, want := range map[Owner]string{
		OwnerProvider: "provider", OwnerChinaTelecom: "china-telecom",
		OwnerCloudflare: "cloudflare",
	} {
		if o.String() != want {
			t.Errorf("Owner.String() = %q, want %q", o.String(), want)
		}
	}
}

func TestHarmonicPickSkew(t *testing.T) {
	pol, _ := PolicyFor(providers.Oracle)
	tab := newNodeTable(pol, pdns.TypeA, "us-ashburn-1", 11)
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 11)
	for i := 0; i < 50000; i++ {
		counts[tab.pick(rng)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("harmonic pick not skewed: first=%d last=%d", counts[0], counts[10])
	}
	var top10 int
	for _, c := range counts[:10] {
		top10 += c
	}
	share := float64(top10) / 50000
	if share < 0.9 { // 10 of 11 harmonic nodes carry >> 90%
		t.Errorf("top10 share over 11 nodes = %v", share)
	}
}

func TestClassifyRDataRoundTrip(t *testing.T) {
	// Every answer the resolver synthesises must classify back to the
	// owner it was synthesised for.
	r := NewResolver()
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		id     providers.ID
		region string
	}{
		{providers.Baidu, "bj"},
		{providers.Kingsoft, "cn-beijing-6"},
		{providers.IBM, "eu-gb"},
		{providers.AWS, "us-east-1"},
		{providers.Aliyun, "cn-shanghai"},
		{providers.Google, "us-central1"},
	}
	for _, c := range cases {
		fqdn := providers.Get(c.id).Generate(rng, c.region)
		for i := 0; i < 100; i++ {
			a, err := r.Resolve(fqdn, rng)
			if err != nil {
				t.Fatal(err)
			}
			got := ClassifyRData(a.RData)
			if got != a.Owner {
				t.Fatalf("%v rdata %q: classified %v, synthesised as %v", c.id, a.RData, got, a.Owner)
			}
		}
	}
}

func TestClassifyRDataExternal(t *testing.T) {
	cases := map[string]Owner{
		"x.y.cdn.cloudflare.net": OwnerCloudflare,
		"cfc-bj.cu.bcelb.com":    OwnerChinaUnicom,
		"cfc-gz.cm.bcelb.com":    OwnerChinaMobile,
		"101.33.4.4":             OwnerChinaTelecom,
		"8.8.8.8":                OwnerProvider,
		"gz.scf.tencentcs.com":   OwnerProvider,
	}
	for rdata, want := range cases {
		if got := ClassifyRData(rdata); got != want {
			t.Errorf("ClassifyRData(%q) = %v, want %v", rdata, got, want)
		}
	}
}
