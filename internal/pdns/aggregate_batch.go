package pdns

import (
	"repro/internal/providers"
)

// symIdent caches one symbol's identification result: whether the FQDN
// matched a provider, and if so which one and which region. Resolved once
// per distinct symbol instead of once per record.
type symIdent struct {
	checked bool
	ok      bool
	info    *providers.Info
	region  string
}

// provEntry caches one provider's hot aggregation targets — the rollup, its
// monthly series, and the three studied RTypeStats — so the per-record path
// costs pointer chases instead of map lookups.
type provEntry struct {
	ps      *ProviderStats
	monthly map[Date]int64
	rsA     *RTypeStats
	rsAAAA  *RTypeStats
	rsCNAME *RTypeStats
}

// AddBatch folds every row of b into the aggregate, equivalent to calling
// Add on each materialised record but without per-record string or map-key
// work: the batch's intern table is adopted, identification and FQDNStats
// lookups are cached per symbol, and FQDNStats/bitset storage comes from
// slab arenas.
//
// A streaming producer keeps one Symtab for its whole stream (Reset keeps
// it), so the caches stay warm across its batches. A batch carrying a
// different table is adopted in turn: the per-symbol caches only memoise
// the string-keyed state, so they are dropped and rebuilt — correct, just
// colder — and mixed producers degrade instead of corrupting.
//
// Add is the scalar reference this must always agree with
// (FuzzAddBatchMatchesAdd); no pipeline path calls Add.
func (a *Aggregator) AddBatch(b *RecordBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if a.symtab != b.Syms {
		a.symtab = b.Syms
		a.bySym, a.identBySym = nil, nil
	}
	a.growSym(b.Syms.Len())
	// The dispositions are counted in locals and published once per batch:
	// a live reading of the counters lags by at most one batch per shard,
	// and their final values equal a per-row count.
	var matched, dropped, window, unmatched int64
	for i := 0; i < n; i++ {
		if !b.rowValid(i) {
			dropped++
			continue
		}
		pd := b.PDate[i]
		if pd < a.window.start || pd > a.window.end {
			window++
			continue
		}
		fsym := b.FQDN[i]
		id := &a.identBySym[fsym]
		if !id.checked {
			id.checked = true
			fqdn := a.symtab.Lookup(fsym)
			id.info, id.region, id.ok = a.matcher.IdentifyRegion(fqdn)
		}
		if !id.ok {
			unmatched++
			continue
		}
		matched++

		fs := a.bySym[fsym]
		if fs == nil {
			fqdn := a.symtab.Lookup(fsym)
			if fs = a.byFQDN[fqdn]; fs == nil {
				fs = a.newFQDNStats(fqdn, id.region, id.info.ID, pd)
			}
			a.bySym[fsym] = fs
		}
		a.fold(fs, id.info.ID, b.RType[i], a.symtab.Lookup(b.RData[i]), b.RequestCnt[i], pd)
	}
	a.scanned += int64(n)
	a.matched += matched
	a.dropped += dropped
	a.mScanned.Add(int64(n))
	a.mMatched.Add(matched)
	a.mDropped.Add(dropped)
	a.iMatched.Add(matched)
	a.iInvalid.Add(dropped)
	a.iWindow.Add(window)
	a.iUnmatched.Add(unmatched)
}

// growSym extends the per-symbol caches to cover syms [0, n).
func (a *Aggregator) growSym(n int) {
	if n <= len(a.bySym) {
		return
	}
	if n <= cap(a.bySym) {
		a.bySym = a.bySym[:n]
		a.identBySym = a.identBySym[:n]
		return
	}
	c := 2 * n
	bySym := make([]*FQDNStats, n, c)
	copy(bySym, a.bySym)
	a.bySym = bySym
	ident := make([]symIdent, n, c)
	copy(ident, a.identBySym)
	a.identBySym = ident
}

// prov returns the cached entry for a provider, building the rollup maps on
// first sight (or wrapping rollups the scalar path already created).
func (a *Aggregator) prov(id providers.ID) *provEntry {
	i := int(id)
	for i >= len(a.provDense) {
		a.provDense = append(a.provDense, nil)
	}
	pe := a.provDense[i]
	if pe == nil {
		ps := a.byProvider[id]
		if ps == nil {
			ps = &ProviderStats{
				Provider: id,
				Regions:  make(map[string]struct{}),
				ByRType:  make(map[RType]*RTypeStats),
			}
			a.byProvider[id] = ps
		}
		mr := a.monthlyReq[id]
		if mr == nil {
			mr = make(map[Date]int64)
			a.monthlyReq[id] = mr
		}
		pe = &provEntry{ps: ps, monthly: mr}
		a.provDense[i] = pe
	}
	return pe
}

// rtype returns the provider's stats bucket for t, caching the three
// studied types on the entry; anything else goes through the map.
func (pe *provEntry) rtype(t RType) *RTypeStats {
	switch t {
	case TypeA:
		if pe.rsA == nil {
			pe.rsA = pe.mapRType(t)
		}
		return pe.rsA
	case TypeAAAA:
		if pe.rsAAAA == nil {
			pe.rsAAAA = pe.mapRType(t)
		}
		return pe.rsAAAA
	case TypeCNAME:
		if pe.rsCNAME == nil {
			pe.rsCNAME = pe.mapRType(t)
		}
		return pe.rsCNAME
	default:
		return pe.mapRType(t)
	}
}

func (pe *provEntry) mapRType(t RType) *RTypeStats {
	rs := pe.ps.ByRType[t]
	if rs == nil {
		rs = &RTypeStats{ByRData: make(map[string]int64)}
		pe.ps.ByRType[t] = rs
	}
	return rs
}

// monthOf maps an in-window date to the first day of its month through a
// dense per-window cache, replacing the per-record calendar conversion.
func (a *Aggregator) monthOf(pd Date) Date {
	i := pd.Sub(a.window.start)
	if i < 0 || i >= a.window.end.Sub(a.window.start)+1 {
		return pd.Month()
	}
	if a.monthCache == nil {
		a.monthCache = make([]Date, a.window.end.Sub(a.window.start)+1)
		for d := range a.monthCache {
			a.monthCache[d] = a.window.start.AddDays(d).Month()
		}
	}
	return a.monthCache[i]
}

// statsChunk sizes the FQDNStats and bitset-word slabs: large enough to
// amortise allocation across thousands of first-seen FQDNs, small enough
// that a sparse shard does not strand much memory.
const statsChunk = 256

// allocStats hands out one FQDNStats from the slab arena.
func (a *Aggregator) allocStats() *FQDNStats {
	if len(a.statsArena) == 0 {
		a.statsArena = make([]FQDNStats, statsChunk)
	}
	fs := &a.statsArena[0]
	a.statsArena = a.statsArena[1:]
	return fs
}

// allocBitset hands out one window-sized seen-days bitset from the word
// arena. The capacity clamp keeps neighbouring bitsets from aliasing.
func (a *Aggregator) allocBitset() bitset {
	days := a.window.end.Sub(a.window.start) + 1
	words := (days + 63) / 64
	if len(a.daysArena) < words {
		a.daysArena = make([]uint64, words*statsChunk)
	}
	w := a.daysArena[:words:words]
	a.daysArena = a.daysArena[words:]
	return bitset{words: w, n: days}
}
