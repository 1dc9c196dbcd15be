package fault

import (
	"time"

	"repro/internal/pdns"
)

// CorruptRecord deterministically mangles a fraction of PDNS records so they
// fail pdns.Record.Validate, modelling the malformed rows a real
// 600 B-queries/day feed carries. The decision and the mangle mode derive
// only from identity fields (seed, fqdn, pdate, rtype, rdata) — never from
// RequestCnt — so a record is corrupted consistently whether or not the
// resolver-cache model rescaled its counts, and the cache-model ablation
// still compares identical domain sets.
//
// Reports whether the record was mangled.
func (in *Injector) CorruptRecord(rec *pdns.Record) bool {
	if in == nil || in.prof.FeedCorrupt <= 0 {
		return false
	}
	h := pdns.HashFQDN(rec.FQDN)
	h = mix64(h ^ uint64(rec.PDate)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(rec.RType)<<32 ^ hashString(rec.RData))
	s := newStream(uint64(in.prof.Seed), h, streamRecord)
	if !s.hit(in.prof.FeedCorrupt) {
		return false
	}
	in.mCorrupt.Inc()
	switch s.next() % 3 {
	case 0:
		rec.FQDN = "" // Validate: empty fqdn
	case 1:
		rec.RequestCnt = -rec.RequestCnt - 1 // Validate: negative request_cnt
	default:
		rec.LastSeen = rec.FirstSeen.Add(-time.Hour) // Validate: last before first
	}
	return true
}

// hashString is FNV-1a over the raw bytes (no canonicalisation — rdata is
// case-sensitive payload, unlike FQDNs).
func hashString(s string) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
