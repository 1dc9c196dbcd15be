package pdns

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/providers"
)

// FQDNStats carries the per-function metrics defined in paper §3.2: the
// first and last observed dates across the whole window, the number of
// distinct days with invocations, and the cumulative request count.
type FQDNStats struct {
	FQDN     string
	Provider providers.ID
	Region   string

	FirstSeenAll Date
	LastSeenAll  Date
	DaysCount    int
	TotalRequest int64

	seenDays bitset
}

// Lifespan returns the active duration in days, inclusive of both endpoints,
// i.e. last_seen_all - first_seen_all + 1. A function observed on a single
// day has lifespan 1.
func (s *FQDNStats) Lifespan() int { return s.LastSeenAll.Sub(s.FirstSeenAll) + 1 }

// ActivityDensity is the proportion of days with recorded invocations within
// the lifespan: p = days_count / (last_seen_all - first_seen_all + 1).
// Steady daily invocation yields p = 1 (paper §4.3).
func (s *FQDNStats) ActivityDensity() float64 {
	return float64(s.DaysCount) / float64(s.Lifespan())
}

// RTypeStats accumulates, for one provider and record type, the request
// volume and the per-rdata request distribution (Table 2).
type RTypeStats struct {
	Requests int64
	ByRData  map[string]int64
}

// RDataCnt is the number of distinct rdata values observed for the type.
func (rs *RTypeStats) RDataCnt() int { return len(rs.ByRData) }

// Top10Share is the fraction of the type's requests contributed by its ten
// most frequent rdata values (Table 2, "Top10"). Rather than sorting the
// full rdata distribution — AWS alone carries thousands of ingress
// addresses — it keeps a fixed 10-slot min-heap while streaming the map, so
// the cost is O(n log 10) with zero allocations.
func (rs *RTypeStats) Top10Share() float64 {
	if rs.Requests == 0 {
		return 0
	}
	if len(rs.ByRData) <= 10 {
		return 1
	}
	// top holds the 10 largest counts seen so far as a min-heap rooted at
	// index 0, so the smallest kept value is evicted in O(log 10).
	var top [10]int64
	k := 0
	for _, c := range rs.ByRData {
		switch {
		case k < len(top):
			// Fill phase: append and sift up.
			i := k
			top[i] = c
			k++
			for i > 0 {
				parent := (i - 1) / 2
				if top[parent] <= top[i] {
					break
				}
				top[parent], top[i] = top[i], top[parent]
				i = parent
			}
		case c > top[0]:
			// Replace the minimum and sift down.
			top[0] = c
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				small := i
				if l < len(top) && top[l] < top[small] {
					small = l
				}
				if r < len(top) && top[r] < top[small] {
					small = r
				}
				if small == i {
					break
				}
				top[i], top[small] = top[small], top[i]
				i = small
			}
		}
	}
	var sum int64
	for _, c := range top {
		sum += c
	}
	return float64(sum) / float64(rs.Requests)
}

// ProviderStats is the per-provider rollup backing Table 2.
type ProviderStats struct {
	Provider providers.ID
	Domains  int
	Requests int64
	Regions  map[string]struct{}
	ByRType  map[RType]*RTypeStats
}

// RTypeShare returns the fraction of the provider's requests answered with
// the given record type.
func (ps *ProviderStats) RTypeShare(t RType) float64 {
	if ps.Requests == 0 {
		return 0
	}
	rs, ok := ps.ByRType[t]
	if !ok {
		return 0
	}
	return float64(rs.Requests) / float64(ps.Requests)
}

// Aggregator performs the single-pass aggregation of paper §3.2: PDNS
// records whose FQDN matches a provider pattern are folded into per-FQDN and
// per-provider statistics plus the daily/monthly series used by the trend
// figures. Records are accepted in any order.
type Aggregator struct {
	matcher *providers.Matcher
	window  struct{ start, end Date }

	byFQDN     map[string]*FQDNStats
	byProvider map[providers.ID]*ProviderStats

	newPerDay  map[Date]int                    // Figure 3: first-seen diffs
	monthlyReq map[providers.ID]map[Date]int64 // Figure 4: invocation trend
	matched    int64                           // records kept
	scanned    int64                           // records examined
	dropped    int64                           // records failing Validate

	// Telemetry; populated by Instrument, no-ops otherwise. Together with
	// the identify stage span this yields the feed's records/sec throughput.
	mScanned *obs.Counter // pdns_records_scanned_total
	mMatched *obs.Counter // pdns_records_matched_total
	mDropped *obs.Counter // pdns_records_dropped_total

	// Per-shard ingest dispositions, interned from
	// pdns_ingest_total{shard,disposition} by InstrumentShard so the
	// per-record cost stays one atomic increment. All nil (no-op) unless
	// InstrumentShard was called.
	iMatched   *obs.Counter
	iInvalid   *obs.Counter
	iWindow    *obs.Counter
	iUnmatched *obs.Counter

	// Columnar fast path state (aggregate_batch.go): the adopted intern
	// table, per-symbol stats/identification caches, slab arenas for
	// FQDNStats and bitset words, and the dense month/provider caches that
	// both Add and AddBatch share.
	symtab     *Symtab
	bySym      []*FQDNStats
	identBySym []symIdent
	provDense  []*provEntry
	statsArena []FQDNStats
	daysArena  []uint64
	monthCache []Date
}

// Instrument points the aggregator's telemetry at reg. Call before the first
// Add; a nil registry leaves the aggregator un-instrumented.
func (a *Aggregator) Instrument(reg *obs.Registry) {
	a.mScanned = reg.Counter("pdns_records_scanned_total")
	a.mMatched = reg.Counter("pdns_records_matched_total")
	a.mDropped = reg.Counter("pdns_records_dropped_total")
}

// InstrumentShard is Instrument plus the dimensional ingest stream: every
// record lands in pdns_ingest_total{shard,disposition} with disposition
// matched, invalid, out-of-window, or unmatched. Shard is the caller's
// partition label (the parallel aggregation path uses the worker index).
func (a *Aggregator) InstrumentShard(reg *obs.Registry, shard string) {
	a.Instrument(reg)
	vec := reg.CounterVec("pdns_ingest_total", "shard", "disposition")
	a.iMatched = vec.With(shard, "matched")
	a.iInvalid = vec.With(shard, "invalid")
	a.iWindow = vec.With(shard, "out-of-window")
	a.iUnmatched = vec.With(shard, "unmatched")
}

// NewAggregator builds an aggregator over the [start, end] day window. The
// matcher decides which FQDNs belong to the study; nil selects all collected
// providers.
func NewAggregator(matcher *providers.Matcher, start, end Date) *Aggregator {
	if matcher == nil {
		matcher = providers.NewMatcher(nil)
	}
	a := &Aggregator{
		matcher:    matcher,
		byFQDN:     make(map[string]*FQDNStats),
		byProvider: make(map[providers.ID]*ProviderStats),
		newPerDay:  make(map[Date]int),
		monthlyReq: make(map[providers.ID]map[Date]int64),
	}
	a.window.start, a.window.end = start, end
	return a
}

// Presize hints the expected number of distinct matched FQDNs so the main
// map starts at its final size instead of rehashing its way there. Only
// effective before the first record; the parallel aggregation path calls it
// with each shard's expected function count.
func (a *Aggregator) Presize(fqdns int) {
	if fqdns > 0 && len(a.byFQDN) == 0 {
		a.byFQDN = make(map[string]*FQDNStats, fqdns)
	}
}

// Add folds one record into the aggregate. Records outside the window or not
// matching any provider are counted but otherwise ignored. Invalid records
// are dropped, mirroring a production feed consumer.
//
// Add is the record-at-a-time adapter for consumers at the edges (the
// examples, the public facade) and the reference oracle AddBatch is tested
// and fuzzed against; the pipeline itself aggregates through AddBatch.
func (a *Aggregator) Add(r *Record) {
	a.scanned++
	a.mScanned.Inc()
	if err := r.Validate(); err != nil {
		a.dropped++
		a.mDropped.Inc()
		a.iInvalid.Inc()
		return
	}
	if r.PDate < a.window.start || r.PDate > a.window.end {
		a.iWindow.Inc()
		return
	}
	info, region, ok := a.matcher.IdentifyRegion(r.FQDN)
	if !ok {
		a.iUnmatched.Inc()
		return
	}
	a.matched++
	a.mMatched.Inc()
	a.iMatched.Inc()

	fs := a.byFQDN[r.FQDN]
	if fs == nil {
		fs = a.newFQDNStats(r.FQDN, region, info.ID, r.PDate)
	}
	a.fold(fs, info.ID, r.RType, r.RData, r.RequestCnt, r.PDate)
}

// fold applies one matched record's contribution to the per-FQDN, per-
// provider, and trend series — shared verbatim by Add and the AddBatch row
// loop so the two paths cannot drift.
func (a *Aggregator) fold(fs *FQDNStats, id providers.ID, t RType, rdata string, cnt int64, pd Date) {
	if pd < fs.FirstSeenAll {
		fs.FirstSeenAll = pd
	}
	if pd > fs.LastSeenAll {
		fs.LastSeenAll = pd
	}
	if day := pd.Sub(a.window.start); fs.seenDays.setIfUnset(day) {
		fs.DaysCount++
	}
	fs.TotalRequest += cnt

	pe := a.prov(id)
	if fs.Region != "" {
		pe.ps.Regions[fs.Region] = struct{}{}
	}
	pe.ps.Requests += cnt
	rs := pe.rtype(t)
	rs.Requests += cnt
	rs.ByRData[rdata] += cnt
	pe.monthly[a.monthOf(pd)] += cnt
}

// newFQDNStats arena-allocates and registers the stats of a first-seen
// FQDN, bumping the Figure 3 first-seen series.
func (a *Aggregator) newFQDNStats(fqdn, region string, id providers.ID, pd Date) *FQDNStats {
	fs := a.allocStats()
	*fs = FQDNStats{
		FQDN:         fqdn,
		Provider:     id,
		Region:       region,
		FirstSeenAll: pd,
		LastSeenAll:  pd,
		seenDays:     a.allocBitset(),
	}
	a.byFQDN[fqdn] = fs
	a.newPerDay[pd]++
	return fs
}

// Finish fixes per-provider domain counts and returns the aggregate.
func (a *Aggregator) Finish() *Aggregate {
	for _, ps := range a.byProvider {
		ps.Domains = 0
	}
	for _, fs := range a.byFQDN {
		a.byProvider[fs.Provider].Domains++
		fs.seenDays = bitset{} // release the bitsets; DaysCount is final
	}
	return &Aggregate{
		Window:     Window{Start: a.window.start, End: a.window.end},
		ByFQDN:     a.byFQDN,
		ByProvider: a.byProvider,
		NewPerDay:  a.newPerDay,
		MonthlyReq: a.monthlyReq,
		Scanned:    a.scanned,
		Matched:    a.matched,
		Dropped:    a.dropped,
	}
}

// Window is an inclusive day range.
type Window struct{ Start, End Date }

// Days returns the window length in days.
func (w Window) Days() int { return w.End.Sub(w.Start) + 1 }

// Aggregate is the finished output of an Aggregator pass.
type Aggregate struct {
	Window     Window
	ByFQDN     map[string]*FQDNStats
	ByProvider map[providers.ID]*ProviderStats
	NewPerDay  map[Date]int
	MonthlyReq map[providers.ID]map[Date]int64
	Scanned    int64
	Matched    int64
	Dropped    int64
}

// TotalDomains returns the number of distinct function FQDNs observed.
func (ag *Aggregate) TotalDomains() int { return len(ag.ByFQDN) }

// TotalRequests returns the cumulative request count across all functions.
func (ag *Aggregate) TotalRequests() int64 {
	var n int64
	for _, ps := range ag.ByProvider {
		n += ps.Requests
	}
	return n
}

// PerFunctionStats returns the stats of FQDNs that uniquely identify one
// cloud function, sorted by FQDN for determinism. Google, IBM and Oracle are
// excluded, as in paper §4.3.
func (ag *Aggregate) PerFunctionStats() []*FQDNStats {
	var out []*FQDNStats
	for _, fs := range ag.ByFQDN {
		if providers.Get(fs.Provider).UniqueFunctionDomain {
			out = append(out, fs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FQDN < out[j].FQDN })
	return out
}

// bitset is a fixed-size set of small non-negative integers, used to count
// distinct active days per FQDN without a per-day map allocation.
type bitset struct {
	words []uint64
	n     int
}

// setIfUnset sets bit i and reports whether it was previously clear.
// Out-of-range indices report false.
func (b bitset) setIfUnset(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	return true
}
