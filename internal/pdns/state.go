package pdns

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/binio"
	"repro/internal/providers"
)

// This file is the serialisation boundary of the aggregation engine: it
// dumps and restores a finished Aggregate (the identify stage's boundary
// checkpoint) as a compact binary blob. The codec lives in pdns rather than
// the checkpoint package so it sits next to the types it walks.
//
// Determinism matters here: every map is emitted in sorted key order, so
// the same logical state always serialises to the same bytes and checkpoint
// files can be compared or fingerprinted like any other artifact. Strings
// (FQDNs, rdata values) each occur exactly once across the maps, so no
// intern table is needed on the wire.

const (
	stateVersion = 1
	// modeAggregate tags the blob's kind, so a blob of any other kind
	// handed to DecodeAggregate fails loudly instead of mis-parsing.
	modeAggregate = 'A'
)

// EncodeAggregate serialises a finished Aggregate (bitsets already
// released; DaysCount is final).
func EncodeAggregate(w io.Writer, ag *Aggregate) error {
	bw := binio.NewWriter(w)
	bw.Uvarint(stateVersion)
	bw.Uvarint(modeAggregate)
	bw.Varint(int64(ag.Window.Start))
	bw.Varint(int64(ag.Window.End))
	bw.Varint(ag.Scanned)
	bw.Varint(ag.Matched)
	bw.Varint(ag.Dropped)
	encodeFQDNStatsMap(bw, ag.ByFQDN)
	encodeProviderMap(bw, ag.ByProvider)
	encodeNewPerDay(bw, ag.NewPerDay)
	encodeMonthly(bw, ag.MonthlyReq)
	return bw.Err()
}

// DecodeAggregate restores an Aggregate serialised by EncodeAggregate.
func DecodeAggregate(data []byte) (*Aggregate, error) {
	r := binio.NewReader(data)
	start, end, scanned, matched, dropped, err := decodeStateHeader(r)
	if err != nil {
		return nil, err
	}
	ag := &Aggregate{
		Window:  Window{Start: start, End: end},
		Scanned: scanned, Matched: matched, Dropped: dropped,
	}
	if ag.ByFQDN, err = decodeFQDNStatsMap(r); err != nil {
		return nil, err
	}
	if ag.ByProvider, err = decodeProviderMap(r); err != nil {
		return nil, err
	}
	if ag.NewPerDay, err = decodeNewPerDay(r); err != nil {
		return nil, err
	}
	if ag.MonthlyReq, err = decodeMonthly(r); err != nil {
		return nil, err
	}
	return ag, nil
}

func decodeStateHeader(r *binio.Reader) (start, end Date, scanned, matched, dropped int64, err error) {
	v, err := r.Uvarint()
	if err != nil {
		return
	}
	if v != stateVersion {
		err = fmt.Errorf("pdns: unsupported state version %d (want %d)", v, stateVersion)
		return
	}
	mode, err := r.Uvarint()
	if err != nil {
		return
	}
	if mode != modeAggregate {
		err = fmt.Errorf("pdns: state mode %q does not match expected %q", rune(mode), rune(modeAggregate))
		return
	}
	read := func(dst *int64) {
		if err == nil {
			*dst, err = r.Varint()
		}
	}
	var s, e int64
	read(&s)
	read(&e)
	read(&scanned)
	read(&matched)
	read(&dropped)
	start, end = Date(s), Date(e)
	if err == nil && end < start {
		err = fmt.Errorf("pdns: state window [%d, %d] inverted", start, end)
	}
	return
}

func encodeFQDNStatsMap(w *binio.Writer, m map[string]*FQDNStats) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		fs := m[k]
		w.String(fs.FQDN)
		w.Varint(int64(fs.Provider))
		w.String(fs.Region)
		w.Varint(int64(fs.FirstSeenAll))
		w.Varint(int64(fs.LastSeenAll))
		w.Varint(int64(fs.DaysCount))
		w.Varint(fs.TotalRequest)
	}
}

func decodeFQDNStatsMap(r *binio.Reader) (map[string]*FQDNStats, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, fmt.Errorf("pdns: fqdn stats: %w", err)
	}
	out := make(map[string]*FQDNStats, n)
	for i := 0; i < n; i++ {
		fs := &FQDNStats{}
		if fs.FQDN, err = r.String(); err != nil {
			return nil, fmt.Errorf("pdns: fqdn stats: %w", err)
		}
		prov, err := r.Varint()
		if err != nil {
			return nil, err
		}
		fs.Provider = providers.ID(prov)
		if fs.Region, err = r.String(); err != nil {
			return nil, err
		}
		ints := [4]int64{}
		for j := range ints {
			if ints[j], err = r.Varint(); err != nil {
				return nil, err
			}
		}
		fs.FirstSeenAll, fs.LastSeenAll = Date(ints[0]), Date(ints[1])
		fs.DaysCount, fs.TotalRequest = int(ints[2]), ints[3]
		out[fs.FQDN] = fs
	}
	return out, nil
}

func encodeProviderMap(w *binio.Writer, m map[providers.ID]*ProviderStats) {
	ids := make([]providers.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		ps := m[id]
		w.Varint(int64(id))
		w.Varint(int64(ps.Domains))
		w.Varint(ps.Requests)
		regions := make([]string, 0, len(ps.Regions))
		for reg := range ps.Regions {
			regions = append(regions, reg)
		}
		sort.Strings(regions)
		w.Uvarint(uint64(len(regions)))
		for _, reg := range regions {
			w.String(reg)
		}
		types := make([]RType, 0, len(ps.ByRType))
		for t := range ps.ByRType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		w.Uvarint(uint64(len(types)))
		for _, t := range types {
			rs := ps.ByRType[t]
			w.Uvarint(uint64(t))
			w.Varint(rs.Requests)
			rdata := make([]string, 0, len(rs.ByRData))
			for rd := range rs.ByRData {
				rdata = append(rdata, rd)
			}
			sort.Strings(rdata)
			w.Uvarint(uint64(len(rdata)))
			for _, rd := range rdata {
				w.String(rd)
				w.Varint(rs.ByRData[rd])
			}
		}
	}
}

func decodeProviderMap(r *binio.Reader) (map[providers.ID]*ProviderStats, error) {
	n, err := r.Count(4)
	if err != nil {
		return nil, fmt.Errorf("pdns: provider stats: %w", err)
	}
	out := make(map[providers.ID]*ProviderStats, n)
	for i := 0; i < n; i++ {
		id64, err := r.Varint()
		if err != nil {
			return nil, err
		}
		ps := &ProviderStats{
			Provider: providers.ID(id64),
			Regions:  map[string]struct{}{},
			ByRType:  map[RType]*RTypeStats{},
		}
		domains, err := r.Varint()
		if err != nil {
			return nil, err
		}
		ps.Domains = int(domains)
		if ps.Requests, err = r.Varint(); err != nil {
			return nil, err
		}
		nr, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nr; j++ {
			reg, err := r.String()
			if err != nil {
				return nil, err
			}
			ps.Regions[reg] = struct{}{}
		}
		nt, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nt; j++ {
			t64, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			rs := &RTypeStats{ByRData: map[string]int64{}}
			if rs.Requests, err = r.Varint(); err != nil {
				return nil, err
			}
			nd, err := r.Count(2)
			if err != nil {
				return nil, err
			}
			for k := 0; k < nd; k++ {
				rd, err := r.String()
				if err != nil {
					return nil, err
				}
				if rs.ByRData[rd], err = r.Varint(); err != nil {
					return nil, err
				}
			}
			ps.ByRType[RType(t64)] = rs
		}
		out[ps.Provider] = ps
	}
	return out, nil
}

func encodeNewPerDay(w *binio.Writer, m map[Date]int) {
	days := make([]Date, 0, len(m))
	for d := range m {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	w.Uvarint(uint64(len(days)))
	for _, d := range days {
		w.Varint(int64(d))
		w.Varint(int64(m[d]))
	}
}

func decodeNewPerDay(r *binio.Reader) (map[Date]int, error) {
	n, err := r.Count(2)
	if err != nil {
		return nil, fmt.Errorf("pdns: new-per-day: %w", err)
	}
	out := make(map[Date]int, n)
	for i := 0; i < n; i++ {
		d, err := r.Varint()
		if err != nil {
			return nil, err
		}
		cnt, err := r.Varint()
		if err != nil {
			return nil, err
		}
		out[Date(d)] = int(cnt)
	}
	return out, nil
}

func encodeMonthly(w *binio.Writer, m map[providers.ID]map[Date]int64) {
	ids := make([]providers.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Varint(int64(id))
		encodeNewPerDay64(w, m[id])
	}
}

func encodeNewPerDay64(w *binio.Writer, m map[Date]int64) {
	days := make([]Date, 0, len(m))
	for d := range m {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	w.Uvarint(uint64(len(days)))
	for _, d := range days {
		w.Varint(int64(d))
		w.Varint(m[d])
	}
}

func decodeMonthly(r *binio.Reader) (map[providers.ID]map[Date]int64, error) {
	n, err := r.Count(3)
	if err != nil {
		return nil, fmt.Errorf("pdns: monthly series: %w", err)
	}
	out := make(map[providers.ID]map[Date]int64, n)
	for i := 0; i < n; i++ {
		id64, err := r.Varint()
		if err != nil {
			return nil, err
		}
		nm, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		series := make(map[Date]int64, nm)
		for j := 0; j < nm; j++ {
			d, err := r.Varint()
			if err != nil {
				return nil, err
			}
			if series[Date(d)], err = r.Varint(); err != nil {
				return nil, err
			}
		}
		out[providers.ID(id64)] = series
	}
	return out, nil
}
