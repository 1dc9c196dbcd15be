package faas

import (
	"strconv"

	"repro/internal/providers"
)

// EgressPoolSize is the number of outbound addresses a provider rotates
// through per region. Because providers allocate egress IPs dynamically per
// execution environment, a function that scales out sends traffic from many
// addresses — the property abused to build IP proxies (paper §5.4).
const EgressPoolSize = 256

// FNV-1a 32-bit parameters (hash/fnv's New32a).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// EgressIP returns the outbound IPv4 address used by execution environment
// `instance` of a function in (provider, region). Distinct instances map to
// (mostly) distinct addresses in the regional pool.
//
// The address is FNV-1a 32 of the key "egress|<id>|<region>|<slot>". The
// platform calls this on every invocation, so the key is built in a stack
// buffer and hashed inline: the returned string is the only allocation for
// regions that fit the buffer.
func EgressIP(id providers.ID, region string, instance int64) string {
	slot := uint32(instance) % EgressPoolSize
	var buf [64]byte
	key := append(buf[:0], "egress|"...)
	key = strconv.AppendInt(key, int64(id), 10)
	key = append(key, '|')
	key = append(key, region...)
	key = append(key, '|')
	key = strconv.AppendUint(key, uint64(slot), 10)
	v := uint32(fnvOffset32)
	for _, c := range key {
		v ^= uint32(c)
		v *= fnvPrime32
	}
	// Egress ranges are distinct from ingress ranges: 100.64/10-style pool
	// shifted per provider, so analyses can tell the two apart.
	ip := strconv.AppendInt(buf[:0], int64(100+int(id)), 10)
	ip = append(ip, '.')
	ip = strconv.AppendUint(ip, uint64(byte(64+v%64)), 10)
	ip = append(ip, '.')
	ip = strconv.AppendUint(ip, uint64(byte(v>>8)), 10)
	ip = append(ip, '.')
	ip = strconv.AppendUint(ip, uint64(byte(v)), 10)
	return string(ip)
}

// EgressRotation reports how many distinct egress addresses a burst of n
// fresh instances would observe — the effective anonymity set an abuser
// gains from scale-out.
func EgressRotation(id providers.ID, region string, n int) int {
	seen := make(map[string]struct{}, n)
	for i := int64(1); i <= int64(n); i++ {
		seen[EgressIP(id, region, i)] = struct{}{}
	}
	return len(seen)
}
