package dnssim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// ErrNXDomain is returned when a name does not resolve. Among the studied
// providers only Tencent returns NXDOMAIN for deleted functions, because it
// is the only one without a wildcard record on its suffix (paper §4.4:
// 19.12% of unreachable functions were deleted Tencent functions).
var ErrNXDomain = errors.New("dnssim: NXDOMAIN")

// Answer is one resolution result as a PDNS sensor would log it.
type Answer struct {
	RType pdns.RType
	RData string
	Owner Owner
	TTL   int // seconds
}

// Resolver answers queries for function FQDNs according to each provider's
// policy. It is safe for concurrent use: one Resolver serves every worker of
// the parallel emission path (workload.EmitPDNSParallelBatch).
//
// Concurrency audit, per field: the matcher and per-provider policies are
// built once and read-only afterwards; the deletion set is guarded by mu;
// the lookup and harmonic-number memos are sync.Maps (duplicate computation
// on a racing first miss is benign — entries are value-identical); the
// telemetry counters are atomics. Methods take no locks while calling out,
// so Resolve/ResolveRType/MarkDeleted may interleave freely from any number
// of goroutines.
//
// Lookups (regex identification + policy selection) are memoised per FQDN:
// a two-year feed re-resolves each name hundreds of times, so the cache
// turns the per-query matcher work into a map hit. Deletion state is checked
// on every query, never cached.
type Resolver struct {
	matcher *providers.Matcher

	mu      sync.RWMutex
	deleted map[string]struct{}

	lookups sync.Map // fqdn → *cachedLookup

	// Cache telemetry; populated by Instrument, no-ops otherwise.
	mHits   *obs.Counter // dnssim_lookup_cache_hits_total
	mMisses *obs.Counter // dnssim_lookup_cache_misses_total

	// Dimensional telemetry. The per-provider series are resolved once per
	// FQDN when its lookup is built and cached on the cachedLookup, so the
	// per-query cost is one atomic increment, not a label-key join.
	mLookupVec *obs.CounterVec // dnssim_lookups_total{provider,cache}
	mAnswerVec *obs.CounterVec // dnssim_answers_total{provider,rrtype}
}

// NewResolver builds a resolver over all collected providers.
func NewResolver() *Resolver {
	return &Resolver{
		matcher: providers.NewMatcher(nil),
		deleted: make(map[string]struct{}),
	}
}

// MarkDeleted records that the function behind fqdn has been deleted.
// Subsequent queries return ErrNXDomain only if the provider lacks wildcard
// resolution (Tencent); other providers keep answering.
func (r *Resolver) MarkDeleted(fqdn string) {
	r.mu.Lock()
	r.deleted[strings.ToLower(fqdn)] = struct{}{}
	r.mu.Unlock()
}

// Deleted reports whether fqdn was marked deleted.
func (r *Resolver) Deleted(fqdn string) bool {
	r.mu.RLock()
	_, ok := r.deleted[strings.ToLower(fqdn)]
	r.mu.RUnlock()
	return ok
}

// Resolve answers one query for fqdn, drawing the record type and ingress
// node from the provider's policy using rng.
func (r *Resolver) Resolve(fqdn string, rng *rand.Rand) (Answer, error) {
	cl, pol, region, err := r.lookup(fqdn)
	if err != nil {
		return Answer{}, err
	}
	t := pol.SampleRType(rng)
	a, err := pol.answer(t, region, rng)
	if err == nil {
		cl.countAnswer(t)
	}
	return a, err
}

// ResolveRType answers one query forcing the record type, for callers that
// allocate request volume across types themselves (the workload generator
// enforces the Table 2 type mix this way).
func (r *Resolver) ResolveRType(fqdn string, t pdns.RType, rng *rand.Rand) (Answer, error) {
	cl, pol, region, err := r.lookup(fqdn)
	if err != nil {
		return Answer{}, err
	}
	a, err := pol.answer(t, region, rng)
	if err == nil {
		cl.countAnswer(t)
	}
	return a, err
}

// Instrument points the resolver's cache telemetry at reg. Call before
// resolving; a nil registry leaves the resolver un-instrumented.
func (r *Resolver) Instrument(reg *obs.Registry) {
	r.mHits = reg.Counter("dnssim_lookup_cache_hits_total")
	r.mMisses = reg.Counter("dnssim_lookup_cache_misses_total")
	r.mLookupVec = reg.CounterVec("dnssim_lookups_total", "provider", "cache")
	r.mAnswerVec = reg.CounterVec("dnssim_answers_total", "provider", "rrtype")
}

// cachedLookup is the immutable, deletion-independent part of one FQDN's
// resolution: its policy and region, or the terminal identification error.
type cachedLookup struct {
	pol      *Policy
	region   string
	name     string // provider display name, for error text
	wildcard bool
	err      error // non-nil: the FQDN never resolves (bad name / no policy)

	// Interned per-provider series, resolved once when the lookup is built;
	// all nil (and therefore no-op) on an un-instrumented resolver.
	hit      *obs.Counter // dnssim_lookups_total{provider,hit}
	ansA     *obs.Counter // dnssim_answers_total{provider,A}
	ansAAAA  *obs.Counter
	ansCNAME *obs.Counter
}

func (cl *cachedLookup) countAnswer(t pdns.RType) {
	switch t {
	case pdns.TypeA:
		cl.ansA.Inc()
	case pdns.TypeAAAA:
		cl.ansAAAA.Inc()
	case pdns.TypeCNAME:
		cl.ansCNAME.Inc()
	}
}

func (r *Resolver) lookup(fqdn string) (*cachedLookup, *Policy, string, error) {
	if v, ok := r.lookups.Load(fqdn); ok {
		cl := v.(*cachedLookup)
		r.mHits.Inc()
		cl.hit.Inc()
		return r.finish(fqdn, cl)
	}
	r.mMisses.Inc()
	cl := r.buildLookup(fqdn)
	r.lookups.Store(fqdn, cl)
	return r.finish(fqdn, cl)
}

// finish applies the per-query deletion check on top of a cached lookup.
func (r *Resolver) finish(fqdn string, cl *cachedLookup) (*cachedLookup, *Policy, string, error) {
	if cl.err != nil {
		return cl, nil, "", cl.err
	}
	if !cl.wildcard && r.Deleted(fqdn) {
		return cl, nil, "", fmt.Errorf("dnssim: %q deleted and %s has no wildcard: %w", fqdn, cl.name, ErrNXDomain)
	}
	return cl, cl.pol, cl.region, nil
}

func (r *Resolver) buildLookup(fqdn string) *cachedLookup {
	info, ok := r.matcher.Identify(fqdn)
	if !ok {
		cl := &cachedLookup{err: fmt.Errorf("dnssim: %q is not a function domain: %w", fqdn, ErrNXDomain)}
		r.intern(cl, "unknown")
		return cl
	}
	pol, ok := PolicyFor(info.ID)
	if !ok {
		cl := &cachedLookup{err: fmt.Errorf("dnssim: no policy for %s", info.Name)}
		r.intern(cl, info.Name)
		return cl
	}
	region := ""
	if p, ok := info.Parse(fqdn); ok {
		region = p.Region
	}
	cl := &cachedLookup{pol: pol, region: region, name: info.Name, wildcard: info.WildcardDNS}
	r.intern(cl, info.Name)
	return cl
}

// intern resolves the lookup's dimensional series and counts its cache miss.
func (r *Resolver) intern(cl *cachedLookup, provider string) {
	r.mLookupVec.With(provider, "miss").Inc()
	cl.hit = r.mLookupVec.With(provider, "hit")
	cl.ansA = r.mAnswerVec.With(provider, "A")
	cl.ansAAAA = r.mAnswerVec.With(provider, "AAAA")
	cl.ansCNAME = r.mAnswerVec.With(provider, "CNAME")
}

// answerKey identifies one memoised synthetic answer: the rdata is a pure
// function of (policy, rtype, region, node index).
type answerKey struct {
	t      pdns.RType
	region string
	idx    int
}

// answer synthesises the rdata for one (rtype, region) draw. The node index
// is always drawn from rng first — keeping the RNG consumption of every
// per-function stream fixed — and the synthesis itself is memoised per
// (rtype, region, idx): a two-year feed re-resolves each of a provider's
// few hundred ingress nodes millions of times, so the Sprintf/hash work
// collapses to a read-locked map hit after warm-up.
func (p *Policy) answer(t pdns.RType, region string, rng *rand.Rand) (Answer, error) {
	n := p.NodeCount(t, region)
	if n <= 0 {
		return Answer{}, fmt.Errorf("dnssim: %s has no %v ingress nodes in %q", p.Provider, t, region)
	}
	idx := p.pickNode(n, rng)
	key := answerKey{t, region, idx}
	p.ansMu.RLock()
	a, ok := p.ansCache[key]
	p.ansMu.RUnlock()
	if ok {
		return a, nil
	}
	owner := p.nodeOwner(idx)
	if p.Anycast {
		region = "global"
	}
	a = Answer{RType: t, Owner: owner, TTL: p.ttl()}
	switch t {
	case pdns.TypeA:
		a.RData = syntheticIPv4(p.Provider, owner, region, idx)
	case pdns.TypeAAAA:
		a.RData = syntheticIPv6(p.Provider, owner, region, idx)
	case pdns.TypeCNAME:
		a.RData = p.cname(region, idx)
	}
	p.ansMu.Lock()
	if p.ansCache == nil {
		p.ansCache = make(map[answerKey]Answer)
	}
	p.ansCache[key] = a
	p.ansMu.Unlock()
	return a, nil
}

// pickNode selects an ingress node index. AWS and the anycast providers
// spread load nearly uniformly (Table 2: AWS Top10 ≈ 2%); everyone else
// shows strong concentration, modelled with a harmonic rank distribution.
func (p *Policy) pickNode(n int, rng *rand.Rand) int {
	if n == 1 {
		return 0
	}
	if p.Provider == providers.AWS || p.Anycast {
		return rng.Intn(n)
	}
	// Harmonic weights w_i = 1/(i+1).
	total := harmonic(n)
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

var harmonicCache sync.Map // int -> float64

func harmonic(n int) float64 {
	if v, ok := harmonicCache.Load(n); ok {
		return v.(float64)
	}
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	harmonicCache.Store(n, h)
	return h
}

func (p *Policy) nodeOwner(idx int) Owner {
	if len(p.ThirdPartyOwner) == 0 {
		return OwnerProvider
	}
	return p.ThirdPartyOwner[idx%len(p.ThirdPartyOwner)]
}

func (p *Policy) ttl() int {
	if p.Anycast {
		return 300
	}
	return 60
}

// cname builds the alias target for a CNAME answer.
func (p *Policy) cname(region string, idx int) string {
	switch p.Provider {
	case providers.Aliyun:
		return fmt.Sprintf("fc-ingress-%d.%s.aliyuncs.com", idx, region)
	case providers.Baidu:
		op := []string{"ct", "cu", "cm"}[idx%3]
		return fmt.Sprintf("cfc-%s.%s.bcelb.com", region, op)
	case providers.Tencent:
		// Geographic aliases like gz.scf.tencentcs.com (paper §4.2).
		return fmt.Sprintf("%s.scf.tencentcs.com", tencentGeoCode(region, idx))
	case providers.IBM:
		return fmt.Sprintf("%s.functions.appdomain.cloud.cdn.cloudflare.net", region)
	default:
		return fmt.Sprintf("ingress-%d.%s.%s", idx, region, providers.Get(p.Provider).DomainSuffix)
	}
}

// tencentGeoCode maps a Tencent region to the short geographic label used in
// its CNAME aliases; idx distinguishes the primary and backup alias.
func tencentGeoCode(region string, idx int) string {
	code, ok := tencentGeo[region]
	if !ok {
		code = strings.TrimPrefix(region, "ap-")
		if len(code) > 3 {
			code = code[:3]
		}
	}
	if idx > 0 {
		code = fmt.Sprintf("%s%d", code, idx+1)
	}
	return code
}

var tencentGeo = map[string]string{
	"ap-beijing": "bj", "ap-chengdu": "cd", "ap-chongqing": "cq",
	"ap-guangzhou": "gz", "ap-shanghai": "sh", "ap-nanjing": "nj",
	"ap-hongkong": "hk", "ap-mumbai": "mum", "ap-seoul": "sel",
	"ap-singapore": "sg", "ap-bangkok": "bkk", "ap-tokyo": "tyo",
	"ap-jakarta": "jkt", "eu-frankfurt": "fra", "eu-moscow": "mow",
	"na-ashburn": "iad", "na-siliconvalley": "sjc", "na-toronto": "yyz",
	"sa-saopaulo": "gru", "ap-shenzhen-fsi": "szf", "ap-shanghai-fsi": "shf",
	"ap-beijing-fsi": "bjf",
}

// syntheticIPv4 derives a stable IPv4 address for ingress node idx of
// (provider, region). Third-party nodes land in the operator's address
// space so the ownership analysis can attribute them.
func syntheticIPv4(id providers.ID, owner Owner, region string, idx int) string {
	var base [2]byte
	switch owner {
	case OwnerChinaTelecom:
		base = [2]byte{101, 33}
	case OwnerChinaUnicom:
		base = [2]byte{112, 65}
	case OwnerChinaMobile:
		base = [2]byte{120, 197}
	case OwnerCloudflare:
		base = [2]byte{104, 16}
	default:
		// Provider-owned prefixes, one /8-ish base per provider.
		base = [2]byte{byte(13 + int(id)*7), byte(32 + int(id))}
	}
	h := hash32(fmt.Sprintf("%d|%s|%d", int(id), region, idx))
	return fmt.Sprintf("%d.%d.%d.%d", base[0], base[1], byte(h>>8), byte(h))
}

// syntheticIPv6 derives a stable IPv6 address for ingress node idx.
// Cloudflare-fronted nodes land in a Cloudflare-style prefix so ownership
// can be recovered from the address alone.
func syntheticIPv6(id providers.ID, owner Owner, region string, idx int) string {
	h := hash32(fmt.Sprintf("v6|%d|%s|%d", int(id), region, idx))
	if owner == OwnerCloudflare {
		return fmt.Sprintf("2606:4700:%x::%x", h&0xffff, (h>>16)&0xffff)
	}
	return fmt.Sprintf("2600:%x:%x::%x", 0x1000+int(id), h&0xffff, (h>>16)&0xffff)
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// ObservedQueries models recursive-resolver caching (paper §3.2: request_cnt
// is a conservative lower bound on invocations). Given invocations spread
// over activeSeconds and a record TTL, the expected number of cache-miss
// queries is the number of TTL windows containing at least one arrival:
//
//	misses ≈ (T/τ) · (1 − e^(−λτ/T))
//
// The result is clamped to [1, invocations] for invocations > 0.
func ObservedQueries(invocations int64, activeSeconds, ttl float64) int64 {
	if invocations <= 0 {
		return 0
	}
	if activeSeconds <= 0 || ttl <= 0 {
		return invocations
	}
	windows := activeSeconds / ttl
	if windows < 1 {
		windows = 1
	}
	lam := float64(invocations)
	misses := windows * (1 - math.Exp(-lam/windows))
	obs := int64(math.Ceil(misses))
	if obs < 1 {
		obs = 1
	}
	if obs > invocations {
		obs = invocations
	}
	return obs
}
