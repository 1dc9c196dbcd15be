package dnssim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

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
// the lookup, node-table and per-provider series memos are sync.Maps
// (duplicate computation on a racing first miss is benign — entries are
// value-identical); a node table's answer slots are atomic pointers, and a
// racing first fill of one slot stores a value-identical answer, so either
// store may win; the telemetry counters are atomics. Methods take no locks
// while calling out, so sessions, Resolve and MarkDeleted may interleave
// freely from any number of goroutines.
//
// Lookups (Table 1 identification + policy selection) are memoised per FQDN:
// a two-year feed re-resolves each name hundreds of times, so the cache
// turns the per-query matcher work into a map hit, and a Session pays even
// that once per function, then reads node tables. Deletion state is checked
// on every query, never cached.
type Resolver struct {
	matcher *providers.Matcher

	mu      sync.RWMutex
	deleted map[string]struct{}

	lookups sync.Map // fqdn → *cachedLookup
	tables  sync.Map // regionKey → *regionTables

	// Cache telemetry; populated by Instrument, no-ops otherwise.
	mHits   *obs.Counter // dnssim_lookup_cache_hits_total
	mMisses *obs.Counter // dnssim_lookup_cache_misses_total

	// Dimensional telemetry. Each provider's series are resolved once, on
	// its first lookup, and every cachedLookup of that provider points at
	// the shared set, so the per-name cost is one map hit, not label-key
	// joins.
	mLookupVec *obs.CounterVec // dnssim_lookups_total{provider,cache}
	mAnswerVec *obs.CounterVec // dnssim_answers_total{provider,rrtype}
	series     sync.Map        // provider name → *providerSeries
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
	s := r.Session(fqdn)
	defer s.Close()
	cl, err := s.lookup()
	if err != nil {
		return Answer{}, err
	}
	return s.answer(cl, cl.pol.SampleRType(rng), rng)
}

// Session is a run of queries for one name from one goroutine: the
// workload generator opens one per function. Its first query is an
// ordinary lookup — a cache miss or hit, counted as such — and every later
// query reuses that lookup, so a query costs the deletion check, the node
// draw and a table read. The session's later lookup hits and its answers
// are counted on Close, not per query: a live reading of the dnssim
// counters may lag by up to one open session per goroutine, and the final
// values equal a per-query count. A Session must not be copied once used.
type Session struct {
	r       *Resolver
	fqdn    string
	cl      *cachedLookup // nil until the first query
	hits    int64         // queries after the first: each a lookup hit
	answers [3]int64      // answered queries per slot of regionTables
}

// Session opens a query session for fqdn. Close it to publish its counts.
func (r *Resolver) Session(fqdn string) Session {
	return Session{r: r, fqdn: fqdn}
}

// ResolveRType answers one query forcing the record type, for callers that
// allocate request volume across types themselves (the workload generator
// enforces the Table 2 type mix this way).
func (s *Session) ResolveRType(t pdns.RType, rng *rand.Rand) (Answer, error) {
	cl, err := s.lookup()
	if err != nil {
		return Answer{}, err
	}
	return s.answer(cl, t, rng)
}

// Close adds the session's lookup hits and answers to the resolver's
// counters. The session may be reused afterwards; closing it again adds
// nothing.
func (s *Session) Close() {
	cl := s.cl
	if cl == nil {
		return
	}
	if s.hits > 0 {
		s.r.mHits.Add(s.hits)
		cl.series.hit.Add(s.hits)
	}
	for i, n := range s.answers {
		if n > 0 {
			cl.series.ans[i].Add(n)
		}
	}
	*s = Session{r: s.r, fqdn: s.fqdn}
}

// lookup returns the session's cached lookup and the query's error: the
// name's terminal identification error, or NXDOMAIN when it was deleted.
func (s *Session) lookup() (*cachedLookup, error) {
	if s.cl == nil {
		s.cl = s.r.lookup(s.fqdn)
	} else {
		s.hits++
	}
	return s.cl, s.r.check(s.fqdn, s.cl)
}

// answer draws an ingress node of type t from the lookup's region and
// returns its answer.
func (s *Session) answer(cl *cachedLookup, t pdns.RType, rng *rand.Rand) (Answer, error) {
	i := rtypeSlot(t)
	if i < 0 || cl.tabs[i] == nil {
		return Answer{}, fmt.Errorf("dnssim: %s has no %v ingress nodes in %q", cl.pol.Provider, t, cl.region)
	}
	tab := cl.tabs[i]
	a := tab.answer(tab.pick(rng))
	s.answers[i]++
	return *a, nil
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
// resolution: its policy, region and node tables, or the terminal
// identification error.
type cachedLookup struct {
	pol      *Policy
	region   string
	tabs     *regionTables
	name     string // provider display name, for error text
	wildcard bool
	err      error // non-nil: the FQDN never resolves (bad name / no policy)
	series   *providerSeries
}

// providerSeries is one provider's dimensional series, shared by every
// cachedLookup of that provider. Its counters are all nil (and therefore
// no-ops) on an un-instrumented resolver.
type providerSeries struct {
	miss, hit *obs.Counter    // dnssim_lookups_total{provider,cache}
	ans       [3]*obs.Counter // dnssim_answers_total{provider,rrtype}, by rtypeSlot
}

// lookup returns fqdn's cached lookup, building it on a miss, and counts
// the hit or miss.
func (r *Resolver) lookup(fqdn string) *cachedLookup {
	if v, ok := r.lookups.Load(fqdn); ok {
		cl := v.(*cachedLookup)
		r.mHits.Inc()
		cl.series.hit.Inc()
		return cl
	}
	r.mMisses.Inc()
	cl := r.buildLookup(fqdn)
	r.lookups.Store(fqdn, cl)
	return cl
}

// check is the per-query part of a resolution on top of a cached lookup:
// the terminal error, or the deletion check.
func (r *Resolver) check(fqdn string, cl *cachedLookup) error {
	if cl.err != nil {
		return cl.err
	}
	if !cl.wildcard && r.Deleted(fqdn) {
		return fmt.Errorf("dnssim: %q deleted and %s has no wildcard: %w", fqdn, cl.name, ErrNXDomain)
	}
	return nil
}

func (r *Resolver) buildLookup(fqdn string) *cachedLookup {
	info, region, ok := r.matcher.IdentifyRegion(fqdn)
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
	cl := &cachedLookup{pol: pol, region: region, tabs: r.tablesFor(pol, region), name: info.Name, wildcard: info.WildcardDNS}
	r.intern(cl, info.Name)
	return cl
}

// intern points the lookup at its provider's series and counts its cache
// miss.
func (r *Resolver) intern(cl *cachedLookup, provider string) {
	cl.series = r.seriesFor(provider)
	cl.series.miss.Inc()
}

// seriesFor returns provider's series, resolving them on first use.
func (r *Resolver) seriesFor(provider string) *providerSeries {
	if v, ok := r.series.Load(provider); ok {
		return v.(*providerSeries)
	}
	ps := &providerSeries{
		miss: r.mLookupVec.With(provider, "miss"),
		hit:  r.mLookupVec.With(provider, "hit"),
	}
	for i, t := range slotTypes {
		ps.ans[i] = r.mAnswerVec.With(provider, t.String())
	}
	v, _ := r.series.LoadOrStore(provider, ps)
	return v.(*providerSeries)
}

// slotTypes are the record types a policy answers, in regionTables order.
var slotTypes = [3]pdns.RType{pdns.TypeA, pdns.TypeAAAA, pdns.TypeCNAME}

// rtypeSlot returns t's index in slotTypes, or -1 for a type no policy
// answers.
func rtypeSlot(t pdns.RType) int {
	switch t {
	case pdns.TypeA:
		return 0
	case pdns.TypeAAAA:
		return 1
	case pdns.TypeCNAME:
		return 2
	}
	return -1
}

// regionKey names one policy's ingress pools in one region; anycast pools
// are global, so every region of an anycast policy shares one key.
type regionKey struct {
	pol    *Policy
	region string
}

// regionTables holds one region's node table per slotTypes entry; nil
// where the policy has no node of that type there.
type regionTables [3]*nodeTable

// tablesFor returns the node tables of (pol, region), building them on
// first use.
func (r *Resolver) tablesFor(pol *Policy, region string) *regionTables {
	if pol.Anycast {
		region = "global"
	}
	key := regionKey{pol, region}
	if v, ok := r.tables.Load(key); ok {
		return v.(*regionTables)
	}
	tabs := &regionTables{}
	for i, t := range slotTypes {
		if n := pol.NodeCount(t, region); n > 0 {
			tabs[i] = newNodeTable(pol, t, region, n)
		}
	}
	v, _ := r.tables.LoadOrStore(key, tabs)
	return v.(*regionTables)
}

// nodeTable is one (policy, region, rtype) ingress pool: the total weight
// of a harmonic draw over it and one answer slot per node, filled on first
// use. An answer is a pure function of (policy,
// rtype, region, node index), so a two-year feed that resolves each of a
// provider's few hundred nodes millions of times pays the Sprintf/hash work
// once per node and an atomic load afterwards.
type nodeTable struct {
	pol    *Policy
	t      pdns.RType
	region string  // the synthesis region: "global" for anycast pools
	total  float64 // harmonic(len(slots))
	slots  []atomic.Pointer[Answer]
}

func newNodeTable(pol *Policy, t pdns.RType, region string, n int) *nodeTable {
	return &nodeTable{pol: pol, t: t, region: region, total: harmonic(n), slots: make([]atomic.Pointer[Answer], n)}
}

// pick draws an ingress node index. AWS and the anycast providers spread
// load nearly uniformly (Table 2: AWS Top10 ≈ 2%); everyone else shows
// strong concentration, modelled with a harmonic rank distribution. The
// draw always comes first and reads no memo, so the RNG consumption of
// every per-function stream is fixed.
func (nt *nodeTable) pick(rng *rand.Rand) int {
	n := len(nt.slots)
	if n == 1 {
		return 0
	}
	if nt.pol.Provider == providers.AWS || nt.pol.Anycast {
		return rng.Intn(n)
	}
	// Harmonic weights w_i = 1/(i+1).
	x := rng.Float64() * nt.total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// answer returns node idx's answer, synthesising it on first use.
func (nt *nodeTable) answer(idx int) *Answer {
	if a := nt.slots[idx].Load(); a != nil {
		return a
	}
	p := nt.pol
	owner := p.nodeOwner(idx)
	a := &Answer{RType: nt.t, Owner: owner, TTL: p.ttl()}
	switch nt.t {
	case pdns.TypeA:
		a.RData = syntheticIPv4(p.Provider, owner, nt.region, idx)
	case pdns.TypeAAAA:
		a.RData = syntheticIPv6(p.Provider, owner, nt.region, idx)
	case pdns.TypeCNAME:
		a.RData = p.cname(nt.region, idx)
	}
	nt.slots[idx].Store(a)
	return a
}

// harmonic is the n-th harmonic number, the weight sum of a harmonic draw
// over n nodes.
func harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
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
