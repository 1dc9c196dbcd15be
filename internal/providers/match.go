package providers

import (
	"strings"
)

// Matcher classifies FQDNs against the provider domain patterns of Table 1.
//
// The zero value is not usable; construct with NewMatcher. Matching is a
// two-stage process: a suffix dispatch narrows a candidate FQDN to at most
// one provider in O(labels), then that provider's structural check (one
// switch case per format, deciding exactly what its anchored Table 1
// regular expression decides; DESIGN #37) confirms the full shape with a
// few byte scans. Most names of a PDNS feed miss the suffix map at every
// depth and never reach a check. No regexp engine runs: the patterns are
// the definition and the tests' oracle (ablation:
// BenchmarkIdentifyRegion/matcher vs /table1-regexp, the regexps behind
// the same suffix dispatch).
type Matcher struct {
	bySuffix map[string]*Info
	maxDepth int // deepest suffix, counted in labels
}

// NewMatcher builds a Matcher over the given formats. Passing nil selects
// all formats that participate in PDNS collection (i.e. Collected()).
func NewMatcher(formats []*Info) *Matcher {
	if formats == nil {
		formats = Collected()
	}
	m := &Matcher{bySuffix: make(map[string]*Info, len(formats))}
	for _, in := range formats {
		m.bySuffix[in.DomainSuffix] = in
		if d := strings.Count(in.DomainSuffix, ".") + 1; d > m.maxDepth {
			m.maxDepth = d
		}
	}
	return m
}

// Identify returns the provider whose pattern matches fqdn.
// ok is false when no registered provider matches.
func (m *Matcher) Identify(fqdn string) (*Info, bool) {
	fqdn = normalizeFQDN(fqdn)
	if in := m.candidate(fqdn); in != nil && in.matches(fqdn) {
		return in, true
	}
	return nil, false
}

// IdentifyRegion is Identify plus the FQDN's region, exactly
// Parse(fqdn).Region, from the one match: the region is read off the
// matched string without matching it again.
func (m *Matcher) IdentifyRegion(fqdn string) (in *Info, region string, ok bool) {
	fqdn = normalizeFQDN(fqdn)
	if in = m.candidate(fqdn); in == nil {
		return nil, "", false
	}
	if region, ok = in.matchRegion(fqdn); !ok {
		return nil, "", false
	}
	return in, region, true
}

// candidate returns the provider whose domain suffix the normalised fqdn
// ends in, or nil; only that provider's pattern can match it.
func (m *Matcher) candidate(fqdn string) *Info {
	// Walk candidate suffixes from shallow to deep: "on.aws" (2 labels) up
	// to "functions.appdomain.cloud" etc. Most non-function domains miss
	// the map on every depth and exit without running a check.
	idx := len(fqdn)
	for depth := 0; depth < m.maxDepth && idx > 0; depth++ {
		dot := strings.LastIndexByte(fqdn[:idx], '.')
		if dot < 0 {
			break
		}
		idx = dot
		if in, ok := m.bySuffix[fqdn[idx+1:]]; ok {
			return in
		}
	}
	return nil
}

// normalizeFQDN is strings.ToLower(strings.TrimSuffix(fqdn, ".")), the
// normalisation Match and Parse apply, without ToLower's call on the
// common already-lowercase ASCII name.
func normalizeFQDN(fqdn string) string {
	fqdn = strings.TrimSuffix(fqdn, ".")
	if mayFold(fqdn) {
		fqdn = strings.ToLower(fqdn)
	}
	return fqdn
}

// mayFold reports whether strings.ToLower could change s: it has an ASCII
// capital or any non-ASCII byte (Unicode case folding can even turn a
// multi-byte rune into an ASCII letter, as U+212A KELVIN SIGN into 'k').
func mayFold(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' || c >= 0x80 {
			return true
		}
	}
	return false
}
