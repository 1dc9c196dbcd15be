package c2

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/providers"
)

func TestDefaultDBShape(t *testing.T) {
	db := DefaultDB()
	if db.Len() != 26 {
		t.Errorf("signatures = %d, want 26 (paper §5.1)", db.Len())
	}
	if db.Families() != 18 {
		t.Errorf("families = %d, want 18", db.Families())
	}
	if len(db.ByFamily(FamilyCobaltStrike)) != 3 {
		t.Errorf("cobalt-strike-like variants = %d, want 3", len(db.ByFamily(FamilyCobaltStrike)))
	}
	if len(db.ByFamily(FamilyInfoStealer)) != 2 {
		t.Errorf("infostealer-like variants = %d, want 2", len(db.ByFamily(FamilyInfoStealer)))
	}
	ids := map[string]bool{}
	for _, fp := range db.All() {
		if ids[fp.ID] {
			t.Errorf("duplicate fingerprint id %q", fp.ID)
		}
		ids[fp.ID] = true
		if len(fp.Ports) == 0 {
			t.Errorf("%s has no ports", fp.ID)
		}
		if !strings.Contains(fp.Probe, "{{HOST}}") {
			t.Errorf("%s probe lacks host placeholder", fp.ID)
		}
	}
}

func TestBannersMatchOwnFingerprint(t *testing.T) {
	db := DefaultDB()
	for _, fp := range db.All() {
		banner := Banner(fp)
		if !fp.Match.Matches(banner) {
			t.Errorf("%s: banner does not satisfy its own matcher", fp.ID)
		}
		// HTTP-framed banner must also match (tokens survive framing).
		framed := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n"), banner...)
		if !fp.Match.Matches(framed) {
			t.Errorf("%s: HTTP-framed banner rejected", fp.ID)
		}
	}
}

func TestBannersDoNotCrossMatch(t *testing.T) {
	db := DefaultDB()
	for _, a := range db.All() {
		banner := Banner(a)
		for _, b := range db.All() {
			if a.Family == b.Family {
				continue
			}
			if b.Match.Matches(banner) {
				t.Errorf("banner of %s matches fingerprint %s of family %s", a.ID, b.ID, b.Family)
			}
		}
	}
}

func TestMatcherSemantics(t *testing.T) {
	m := Matcher{Tokens: [][]byte{[]byte("AA"), []byte("BB")}, Delimiter: '|', MinFields: 3}
	if !m.Matches([]byte("xxAAyyBB a|b|c")) {
		t.Error("valid response rejected")
	}
	if m.Matches([]byte("BB then AA a|b|c")) {
		t.Error("out-of-order tokens accepted")
	}
	if m.Matches([]byte("AA BB a|b")) {
		t.Error("insufficient fields accepted")
	}
	if m.Matches([]byte("random 404 page")) {
		t.Error("noise accepted")
	}
	pm := Matcher{Prefix: []byte("MAGIC")}
	if !pm.Matches([]byte("MAGICrest")) || pm.Matches([]byte("xMAGIC")) {
		t.Error("prefix anchoring wrong")
	}
	empty := Matcher{}
	if empty.Matches([]byte("anything")) {
		t.Error("empty matcher must never match")
	}
}

func TestProbeFor(t *testing.T) {
	db := DefaultDB()
	fp := db.ByFamily(FamilyCobaltStrike)[0]
	p := string(fp.ProbeFor("victim.example"))
	if !strings.Contains(p, "Host: victim.example\r\n") {
		t.Errorf("probe host not substituted: %q", p)
	}
	if strings.Contains(p, "{{HOST}}") {
		t.Error("placeholder survived substitution")
	}
}

// relayHandler answers invocations as a relay of family deployed by the
// pipeline does: BannerResponse over the request's method, path with query,
// headers and body.
func relayHandler(db *DB, family string) faas.Handler {
	return func(ctx *faas.InvokeContext) faas.Response {
		r := ctx.Request
		path := r.Path
		if r.Query != "" {
			path += "?" + r.Query
		}
		status, ct, body, _ := BannerResponse(db, family, r.Method, path, r.Headers, r.Body)
		return faas.Response{Status: status, Headers: map[string]string{"Content-Type": ct}, Body: body}
	}
}

// edgeScanner deploys each host's handler on a faas platform, serves the
// gateway over an in-memory edge and returns a scanner that dials the
// edge's plain listener whatever the port, as the pipeline's sweep does.
func edgeScanner(t *testing.T, db *DB, handlers map[string]faas.Handler) *Scanner {
	t.Helper()
	platform := faas.NewPlatform()
	for host, h := range handlers {
		platform.Deploy(host, providers.AWS, "us-east-1", faas.Config{}, h, time.Time{})
	}
	edge := faas.StartEdge(faas.NewGateway(platform))
	t.Cleanup(edge.Close)
	s := NewScanner(db)
	s.Timeout = 2 * time.Second
	s.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) { return edge.DialPlain(ctx) }
	return s
}

func TestScannerDetectsRelay(t *testing.T) {
	db := DefaultDB()
	const host = "relay.lambda-url.us-east-1.on.aws"
	s := edgeScanner(t, db, map[string]faas.Handler{host: relayHandler(db, FamilyCobaltStrike)})
	ds := s.ScanHost(context.Background(), host)
	fams := Families(ds)
	if len(fams) != 1 || fams[0] != FamilyCobaltStrike {
		t.Fatalf("families = %v, want [%s] (detections %v)", fams, FamilyCobaltStrike, ds)
	}
	// All three variants respond, each reported on its declared ports:
	// 2+2+1 hits.
	var got []string
	for _, d := range ds {
		got = append(got, fmt.Sprintf("%s:%d", d.Fingerprint, d.Port))
	}
	want := []string{"cs-like-1:80", "cs-like-1:443", "cs-like-2:80", "cs-like-2:443", "cs-like-3:443"}
	if !slices.Equal(got, want) {
		t.Errorf("detections = %v, want %v", got, want)
	}
}

func TestScannerCleanHost(t *testing.T) {
	// A function that always answers 404 must produce no detections.
	db := DefaultDB()
	const host = "clean.lambda-url.us-east-1.on.aws"
	s := edgeScanner(t, db, map[string]faas.Handler{host: func(*faas.InvokeContext) faas.Response {
		return faas.Response{Status: 404, Headers: map[string]string{"Content-Type": "text/plain"}, Body: []byte("Not Found")}
	}})
	if ds := s.ScanHost(context.Background(), host); len(ds) != 0 {
		t.Errorf("clean host produced detections: %v", ds)
	}
}

func TestScannerUnreachableHost(t *testing.T) {
	db := DefaultDB()
	s := NewScanner(db)
	s.Timeout = 200 * time.Millisecond
	s.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return nil, context.DeadlineExceeded
	}
	if ds := s.ScanHost(context.Background(), "dead.example"); len(ds) != 0 {
		t.Errorf("unreachable host produced detections: %v", ds)
	}
}

func TestScannerContextCancel(t *testing.T) {
	db := DefaultDB()
	s := NewScanner(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ds := s.ScanHost(ctx, "x.example"); len(ds) != 0 {
		t.Errorf("cancelled scan produced detections: %v", ds)
	}
}

func TestHandleRawWrongFamilyProbe(t *testing.T) {
	db := DefaultDB()
	// An InfoStealer probe against a CobaltStrike relay gets a 404.
	probe := db.ByFamily(FamilyInfoStealer)[0].ProbeFor("x")
	resp := HandleRaw(db, FamilyCobaltStrike, probe)
	if !strings.Contains(string(resp), "404") {
		t.Errorf("wrong-family probe answered: %q", resp)
	}
	// The right probe gets the banner.
	probe = db.ByFamily(FamilyCobaltStrike)[0].ProbeFor("x")
	resp = HandleRaw(db, FamilyCobaltStrike, probe)
	if !strings.Contains(string(resp), "200 OK") || !strings.Contains(string(resp), "MZRE") {
		t.Errorf("right-family probe rejected: %q", resp)
	}
}

func TestBannerResponse(t *testing.T) {
	db := DefaultDB()
	fp := db.ByFamily(FamilyInfoStealer)[1] // GET /cfg?id=TESTHWID
	status, ct, body, ok := BannerResponse(db, FamilyInfoStealer,
		"GET", "/cfg?id=TESTHWID",
		map[string]string{"User-Agent": "stl/2.1"}, nil)
	if !ok || status != 200 || ct != "application/octet-stream" {
		t.Fatalf("BannerResponse = %d %s ok=%v", status, ct, ok)
	}
	if !fp.Match.Matches(body) {
		t.Error("returned banner does not satisfy the fingerprint")
	}
	status, _, _, ok = BannerResponse(db, FamilyInfoStealer, "GET", "/", nil, nil)
	if ok || status != 404 {
		t.Errorf("plain GET answered with %d ok=%v", status, ok)
	}
	// net/http hands the function canonical header names: cs-like-2's
	// X-Request-ID arrives as X-Request-Id and must still match.
	status, _, body, ok = BannerResponse(db, FamilyCobaltStrike, "GET", "/ga.js", map[string]string{
		"User-Agent":   "Mozilla/5.0 (Windows NT 10.0; WOW64)",
		"Accept":       "*/*",
		"X-Request-Id": "beacon-7f3a",
	}, nil)
	if cs2 := db.ByFamily(FamilyCobaltStrike)[1]; !ok || status != 200 || !cs2.Match.Matches(body) {
		t.Errorf("canonicalised cs-like-2 probe answered with %d ok=%v", status, ok)
	}
	// A header value still has to match exactly.
	status, _, _, ok = BannerResponse(db, FamilyCobaltStrike, "GET", "/ga.js", map[string]string{
		"User-Agent":   "Mozilla/5.0 (Windows NT 10.0; WOW64)",
		"Accept":       "*/*",
		"X-Request-Id": "beacon-0000",
	}, nil)
	if ok || status != 404 {
		t.Errorf("wrong X-Request-Id value answered with %d ok=%v", status, ok)
	}
}

func TestFamiliesDedup(t *testing.T) {
	ds := []Detection{
		{Family: "a"}, {Family: "b"}, {Family: "a"},
	}
	if got := Families(ds); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Families = %v", got)
	}
}
