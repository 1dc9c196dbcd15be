package providers

import (
	"regexp"
	"strings"
)

// table1Oracle holds each format's Table 1 Pattern compiled by the regexp
// engine: the definition the structural checks in matches implement,
// kept as the tests' differential oracle.
var table1Oracle = func() (res [NumProviders]*regexp.Regexp) {
	for i := range infos {
		res[i] = regexp.MustCompile(infos[i].Pattern)
	}
	return res
}()

// oracleMatch applies in's compiled Pattern to fqdn after the normalisation
// Match and Parse apply, written out here rather than shared.
func oracleMatch(in *Info, fqdn string) bool {
	return table1Oracle[in.ID].MatchString(strings.ToLower(strings.TrimSuffix(fqdn, ".")))
}

// oracleIdentify is the regexp-only reference for Identify over a
// NewMatcher(nil): each collected format's compiled Pattern in turn, without
// the suffix dispatch.
func oracleIdentify(fqdn string) (*Info, bool) {
	for _, in := range Collected() {
		if oracleMatch(in, fqdn) {
			return in, true
		}
	}
	return nil, false
}
