// Package c2 implements the covert command-and-control detection of paper
// §5.1. Detection relies on communication fingerprints rather than response
// content: each fingerprint captures the binary-level pattern of the first
// request/response pair after a TCP handshake for one malware family's C2
// protocol — headers, token sequences, and field delimiters. Repurposed as
// active probes, the fingerprints emulate family-specific C2 requests; a
// function domain answering with the family's response pattern is flagged
// as a C2 relay.
//
// The paper used a commercial corpus of 26 signatures across 18 families
// (QiAnXin); this package ships a synthetic database of identical shape,
// including Cobalt Strike-like and InfoStealer-like families, so the
// scanning logic exercises the same code paths.
//
// Relays are functions on the simulated FaaS platform: BannerResponse
// answers the HTTP-parsed request a function receives, and HandleRaw
// answers the raw probe bytes, the oracle BannerResponse is tested against.
// The simulated transport is port-blind (port 443 reaches the same
// plain-HTTP listener as port 80), so the Scanner sends each fingerprint's
// probe once per host and reports a match on every declared port.
package c2

import (
	"bytes"
	"strings"
)

// Fingerprint describes one C2 protocol signature.
type Fingerprint struct {
	// ID uniquely names the signature; Family groups signatures of one
	// malware family (a family may have several protocol variants).
	ID     string
	Family string

	// Ports to probe. The study probed 80 (HTTP) and 443 (HTTPS). Over a
	// port-blind transport the Scanner sends the probe to Ports[0] only and
	// reports a match on every port listed.
	Ports []int

	// Probe is the raw request emitted after the TCP handshake. The
	// placeholder {{HOST}} is substituted with the target FQDN, letting
	// HTTP-transported C2 protocols carry a correct Host header.
	Probe string

	// Match is applied to the raw response bytes.
	Match Matcher
}

// ProbeFor renders the probe payload for a target host.
func (f *Fingerprint) ProbeFor(host string) []byte {
	return []byte(strings.ReplaceAll(f.Probe, "{{HOST}}", host))
}

// Matcher captures the binary-level response pattern of a family protocol.
// All configured conditions must hold.
type Matcher struct {
	// Prefix anchors the start of the response (raw-socket protocols).
	Prefix []byte
	// Tokens must all appear, in order, anywhere in the response. For C2
	// relayed over HTTP, tokens live in the response body or headers.
	Tokens [][]byte
	// Delimiter/MinFields require a field structure: at least MinFields
	// fields separated by Delimiter somewhere after the last token.
	Delimiter byte
	MinFields int
}

// Matches reports whether resp exhibits the family's response pattern.
func (m *Matcher) Matches(resp []byte) bool {
	if len(m.Prefix) > 0 && !bytes.HasPrefix(resp, m.Prefix) {
		return false
	}
	rest := resp
	for _, tok := range m.Tokens {
		i := bytes.Index(rest, tok)
		if i < 0 {
			return false
		}
		rest = rest[i+len(tok):]
	}
	if m.MinFields > 1 {
		if bytes.Count(rest, []byte{m.Delimiter}) < m.MinFields-1 {
			return false
		}
	}
	return len(m.Prefix) > 0 || len(m.Tokens) > 0 || m.MinFields > 1
}

// Detection is one confirmed C2 fingerprint hit.
type Detection struct {
	Host        string
	Port        int
	Fingerprint string
	Family      string
}
