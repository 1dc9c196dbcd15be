package c2

import (
	"bytes"
	"fmt"
)

// HandleRaw answers a raw request as a relay of the given family would
// (paper Algorithm 1: the function forwards requests to the hidden C2 and
// returns its responses): if the request matches the probe shape of one of
// the family's fingerprints, the hidden C2's banner comes back framed as an
// HTTP 200; anything else gets a generic 404, exactly how these functions
// evade content review. It works on the bytes the scanner sends, with no
// HTTP parser in between, which makes it the oracle that the function-level
// BannerResponse, served through the faas edge, is tested against.
func HandleRaw(db *DB, family string, req []byte) []byte {
	for _, fp := range db.ByFamily(family) {
		if probeShapeMatches(fp, req) {
			banner := Banner(fp)
			return []byte(fmt.Sprintf(
				"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
				len(banner), banner))
		}
	}
	body := "Not Found"
	return []byte(fmt.Sprintf(
		"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		len(body), body))
}

var crlf = []byte("\r\n")

// probeShapeMatches checks whether req looks like fp's probe: the same
// request line, each of the probe's headers other than Host and framing,
// and the probe's body. Header names compare case-insensitively, as HTTP
// defines them: a request that went through net/http arrives with its
// names canonicalised (X-Request-ID becomes X-Request-Id).
func probeShapeMatches(fp *Fingerprint, req []byte) bool {
	probeHead, probeBody, _ := bytes.Cut(fp.ProbeFor("x"), []byte("\r\n\r\n"))
	reqHead, reqBody, _ := bytes.Cut(req, []byte("\r\n\r\n"))
	probeLine, probeHeaders, _ := bytes.Cut(probeHead, crlf)
	reqLine, reqHeaders, _ := bytes.Cut(reqHead, crlf)
	if !bytes.Equal(probeLine, reqLine) {
		return false
	}
	for _, line := range bytes.Split(probeHeaders, crlf) {
		name, _, _ := bytes.Cut(line, []byte(":"))
		if bytes.EqualFold(name, []byte("Host")) ||
			bytes.EqualFold(name, []byte("Connection")) ||
			bytes.EqualFold(name, []byte("Content-Length")) {
			continue
		}
		if !hasHeaderLine(reqHeaders, line) {
			return false
		}
	}
	return bytes.Contains(reqBody, probeBody)
}

// hasHeaderLine reports whether the header block head holds want, a
// "Name: value" line, with the name compared case-insensitively and the
// value exactly, less the whitespace around it.
func hasHeaderLine(head, want []byte) bool {
	wantName, wantValue, _ := bytes.Cut(want, []byte(":"))
	wantValue = bytes.TrimSpace(wantValue)
	for _, line := range bytes.Split(head, crlf) {
		name, value, _ := bytes.Cut(line, []byte(":"))
		if bytes.EqualFold(name, wantName) && bytes.Equal(bytes.TrimSpace(value), wantValue) {
			return true
		}
	}
	return false
}

// BannerResponse returns (status, contentType, body) for the simulated
// function-level handler: abusive functions deployed on the faas platform
// use this to answer HTTP-parsed requests the same way HandleRaw answers
// raw ones.
func BannerResponse(db *DB, family string, method, path string, headers map[string]string, body []byte) (int, string, []byte, bool) {
	// Reconstruct enough of the raw request for probe-shape matching.
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
	for k, v := range headers {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	b.WriteString("\r\n")
	b.Write(body)
	for _, fp := range db.ByFamily(family) {
		if probeShapeMatches(fp, b.Bytes()) {
			return 200, "application/octet-stream", Banner(fp), true
		}
	}
	return 404, "text/plain", []byte("Not Found"), false
}
