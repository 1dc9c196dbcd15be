package providers

import (
	"strings"
)

// regionOf returns the region component of a normalised function FQDN that
// in's pattern has already matched, or "" when the format does not embed
// one: exactly Parse(fqdn).Region, pinned by TestRegionMatchesParse.
// It only ever returns substrings of its input, so the aggregation hot path
// resolves regions without Parse's per-component allocations.
func (in *Info) regionOf(fqdn string) string {
	host := trimDotSuffix(fqdn, in.DomainSuffix)
	switch in.ID {
	case Aliyun:
		// [FName]-[PName]-[Random].[Region]
		dot := strings.LastIndexByte(host, '.')
		if dot < 0 || len(host[:dot]) < 12 {
			return ""
		}
		return host[dot+1:]
	case Baidu, AWS:
		// [Random].cfc-execute.[Region] / [Random].lambda-url.[Region]
		return afterNthDot(host, 2)
	case Tencent:
		// [UserID]-[Random]-[Region]
		if len(host) < 22 {
			return ""
		}
		return host[22:]
	case Kingsoft:
		// [Random]-[Region] where Region is a fixed enum.
		for _, r := range in.Regions {
			if n := len(host) - len(r); n > 0 && host[n-1] == '-' && host[n:] == r {
				return r
			}
		}
		return ""
	case Google:
		// [Region]-[PName] with Region a known gen-1 region id, falling
		// back to the first two labels like Parse does.
		for _, r := range in.Regions {
			if len(host) > len(r) && host[len(r)] == '-' && host[:len(r)] == r {
				return r
			}
		}
		if i := strings.IndexByte(host, '-'); i >= 0 {
			if j := strings.IndexByte(host[i+1:], '-'); j >= 0 {
				return host[:i+1+j]
			}
		}
		return ""
	case Google2:
		// [FName]-[Random]-[Region]: everything after the rightmost
		// interior 10-char alnum token — a suffix of host, so no Join.
		end := strings.LastIndexByte(host, '-')
		for end > 0 {
			start := strings.LastIndexByte(host[:end], '-') + 1
			if start == 0 {
				break
			}
			if end-start == 10 && isLowerAlnum(host[start:end]) {
				return host[end+1:]
			}
			end = start - 1
		}
		return ""
	case IBM:
		return host
	case Oracle:
		// [Random].[Region].functions
		return betweenDots(host)
	default: // Azure and any future format without an embedded region
		return ""
	}
}

// trimDotSuffix removes "."+suffix from the end of s without building the
// concatenated needle.
func trimDotSuffix(s, suffix string) string {
	n := len(s) - len(suffix)
	if n > 0 && s[n-1] == '.' && s[n:] == suffix {
		return s[:n-1]
	}
	return s
}

// afterNthDot returns the substring after the n-th '.', or "" when s has
// fewer dots — mirroring the SplitN arity checks in Parse.
func afterNthDot(s string, n int) string {
	for ; n > 0; n-- {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return ""
		}
		s = s[i+1:]
	}
	return s
}

// betweenDots returns the substring between the first and second '.', or ""
// when s has fewer than two dots.
func betweenDots(s string) string {
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return ""
	}
	rest := s[i+1:]
	j := strings.IndexByte(rest, '.')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
