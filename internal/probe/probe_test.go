package probe

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// dialTo returns a DialContext that always connects to addr.
func dialTo(addr string) func(ctx context.Context, network, a string) (net.Conn, error) {
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
}

func newServerPair(t *testing.T, h http.Handler) (tlsAddr, plainAddr string, cleanup func()) {
	t.Helper()
	tlsSrv := httptest.NewTLSServer(h)
	plainSrv := httptest.NewServer(h)
	return strings.TrimPrefix(tlsSrv.URL, "https://"),
		strings.TrimPrefix(plainSrv.URL, "http://"),
		func() { tlsSrv.Close(); plainSrv.Close() }
}

// schemeDialer routes https dials to the TLS server and http dials to the
// plain server by inspecting the requested port.
func schemeDialer(tlsAddr, plainAddr string) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		if strings.HasSuffix(addr, ":443") {
			return d.DialContext(ctx, network, tlsAddr)
		}
		return d.DialContext(ctx, network, plainAddr)
	}
}

func TestProbeHTTPSPreferred(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 2 * time.Second})
	res := p.Probe(context.Background(), "f.lambda-url.us-east-1.on.aws")
	if !res.Reachable || !res.HTTPS {
		t.Fatalf("result = %+v", res)
	}
	if res.Status != 200 || res.ContentType != "application/json" {
		t.Errorf("status/ct = %d %q", res.Status, res.ContentType)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no fallback needed)", res.Attempts)
	}
	if string(res.Body) != `{"ok":true}` {
		t.Errorf("body = %q", res.Body)
	}
}

// TestSimulationOffersP256Only pins the simulation's key exchange: with a
// custom dialer and relaxed verification the prober offers P-256 alone.
// X25519 doubles the probe sweep's CPU under -race, and the crash matrix's
// determinism rests on every ordinary request beating its probe timeout.
func TestSimulationOffersP256Only(t *testing.T) {
	var offered []tls.CurveID
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.TLS = &tls.Config{GetConfigForClient: func(hello *tls.ClientHelloInfo) (*tls.Config, error) {
		offered = hello.SupportedCurves
		return nil, nil
	}}
	srv.StartTLS()
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "https://")
	res := New(Config{DialContext: dialTo(addr), Timeout: 2 * time.Second}).Probe(context.Background(), "f.lambda-url.us-east-1.on.aws")
	if !res.Reachable || !res.HTTPS {
		t.Fatalf("result = %+v", res)
	}
	if len(offered) != 1 || offered[0] != tls.CurveP256 {
		t.Errorf("offered key-exchange groups %v, want [P-256]", offered)
	}
}

func TestProbeParameterFreeGET(t *testing.T) {
	var gotMethod, gotQuery, gotUA string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotMethod, gotQuery, gotUA = r.Method, r.URL.RawQuery, r.Header.Get("User-Agent")
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 2 * time.Second})
	p.Probe(context.Background(), "f.lambda-url.us-east-1.on.aws")
	if gotMethod != "GET" || gotQuery != "" {
		t.Errorf("request = %s %q, want parameter-free GET", gotMethod, gotQuery)
	}
	if !strings.Contains(gotUA, "research") || !strings.Contains(gotUA, "opt-out") {
		t.Errorf("User-Agent = %q, want research identification", gotUA)
	}
}

func TestProbeHTTPFallback(t *testing.T) {
	// HTTPS port refuses; HTTP succeeds.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("plain ok"))
	})
	plainSrv := httptest.NewServer(h)
	defer plainSrv.Close()
	plainAddr := strings.TrimPrefix(plainSrv.URL, "http://")
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		if strings.HasSuffix(addr, ":443") {
			return nil, errors.New("connection refused")
		}
		return d.DialContext(ctx, network, plainAddr)
	}
	p := New(Config{DialContext: dial, Timeout: 2 * time.Second})
	res := p.Probe(context.Background(), "f.lambda-url.us-east-1.on.aws")
	if !res.Reachable || res.HTTPS {
		t.Fatalf("result = %+v, want HTTP fallback success", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	st := p.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProbeUnreachable(t *testing.T) {
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		return nil, errors.New("connection refused")
	}
	p := New(Config{DialContext: dial, Timeout: time.Second})
	res := p.Probe(context.Background(), "dead.lambda-url.us-east-1.on.aws")
	if res.Reachable || res.Failure != FailConn {
		t.Errorf("result = %+v", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want both schemes tried", res.Attempts)
	}
}

// stallHandler never answers until release is called. It deliberately
// ignores the request context: a handler that returns when the client hangs
// up writes a 200 that the client transport can still deliver as the
// response if it arrives in the same instant the client's timeout fires.
// Call release before closing the servers, which wait for their handlers.
func stallHandler() (h http.Handler, release func()) {
	ch := make(chan struct{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-ch }),
		func() { close(ch) }
}

func TestProbeTimeoutClassified(t *testing.T) {
	h, release := stallHandler()
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	defer release()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 150 * time.Millisecond})
	res := p.Probe(context.Background(), "slow.lambda-url.us-east-1.on.aws")
	if res.Reachable {
		t.Fatalf("result = %+v", res)
	}
	if res.Failure != FailTimeout {
		t.Errorf("failure = %q, want timeout", res.Failure)
	}
}

// TestProbeElapsedCoversStall: a target that never answers holds the probe
// for at least one full timeout, and the result's Elapsed must say so.
func TestProbeElapsedCoversStall(t *testing.T) {
	h, release := stallHandler()
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	defer release()
	const timeout = 150 * time.Millisecond
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: timeout})
	res := p.Probe(context.Background(), "stalled.lambda-url.us-east-1.on.aws")
	if res.Failure != FailTimeout {
		t.Fatalf("failure = %q, want timeout", res.Failure)
	}
	if res.Elapsed < timeout {
		t.Errorf("Elapsed = %v, want >= the %v timeout", res.Elapsed, timeout)
	}
}

func TestProbeDNSPrecheck(t *testing.T) {
	p := New(Config{
		Resolve: func(fqdn string) error {
			if strings.Contains(fqdn, "deleted") {
				return errors.New("NXDOMAIN")
			}
			return nil
		},
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return nil, errors.New("refused")
		},
		Timeout: time.Second,
	})
	res := p.Probe(context.Background(), "1111111111-deletedxyz-ap-guangzhou.scf.tencentcs.com")
	if res.Failure != FailDNS || res.Attempts != 0 {
		t.Errorf("result = %+v, want DNS failure before any HTTP contact", res)
	}
	if p.Stats().DNSFailures != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestProbeOptOut(t *testing.T) {
	contacted := false
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { contacted = true })
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: time.Second})
	p.OptOut("OWNER.lambda-url.us-east-1.on.aws")
	res := p.Probe(context.Background(), "owner.lambda-url.us-east-1.on.aws")
	if res.Failure != FailOptOut || res.Attempts != 0 || contacted {
		t.Errorf("opt-out violated: %+v contacted=%v", res, contacted)
	}
}

func TestProbeRecordsRedirectWithoutFollowing(t *testing.T) {
	hits := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Redirect(w, r, "http://concealed.example/land", http.StatusFound)
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 2 * time.Second})
	res := p.Probe(context.Background(), "r.lambda-url.us-east-1.on.aws")
	if !res.Reachable || res.Status != 302 {
		t.Fatalf("result = %+v", res)
	}
	if res.Location != "http://concealed.example/land" {
		t.Errorf("location = %q", res.Location)
	}
	if hits != 1 {
		t.Errorf("server hit %d times; redirect must not be followed", hits)
	}
}

func TestProbeBodyCap(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 10000))
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 2 * time.Second, MaxBody: 512})
	res := p.Probe(context.Background(), "big.lambda-url.us-east-1.on.aws")
	if len(res.Body) != 512 {
		t.Errorf("body length = %d, want capped at 512", len(res.Body))
	}
}

func TestProbeAllOrderAndStats(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok:" + r.Host))
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: 2 * time.Second, Concurrency: 4})
	fqdns := []string{
		"a.lambda-url.us-east-1.on.aws",
		"b.lambda-url.us-east-1.on.aws",
		"c.lambda-url.us-east-1.on.aws",
	}
	results := p.ProbeAll(context.Background(), fqdns)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.FQDN != fqdns[i] {
			t.Errorf("result %d is %q, want input order preserved", i, r.FQDN)
		}
		if !strings.HasPrefix(string(r.Body), "ok:"+fqdns[i]) {
			t.Errorf("body = %q; Host header not preserved", r.Body)
		}
	}
	st := p.Stats()
	if st.Probed != 3 || st.Reachable != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEmptyDetection(t *testing.T) {
	r := Result{Status: 200}
	if !r.Empty() {
		t.Error("empty 200 not detected")
	}
	r = Result{Status: 200, Body: []byte("x")}
	if r.Empty() {
		t.Error("non-empty 200 reported empty")
	}
	r = Result{Status: 404}
	if r.Empty() {
		t.Error("404 reported empty; Empty applies to 200s only")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Timeout != 60*time.Second {
		t.Errorf("default timeout = %v, want 60s (paper §3.3)", c.Timeout)
	}
	if c.MaxAttempts != 2 || c.Concurrency != 16 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestProbeRateLimit(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{
		DialContext:   schemeDialer(tlsAddr, plainAddr),
		Timeout:       2 * time.Second,
		RatePerSecond: 20, // 50ms between requests
		Concurrency:   8,
	})
	fqdns := make([]string, 6)
	for i := range fqdns {
		fqdns[i] = string(rune('a'+i)) + ".lambda-url.us-east-1.on.aws"
	}
	start := time.Now()
	results := p.ProbeAll(context.Background(), fqdns)
	elapsed := time.Since(start)
	for _, r := range results {
		if !r.Reachable {
			t.Fatalf("probe failed: %+v", r)
		}
	}
	// Six requests at 20 rps need at least ~250ms; without the limiter
	// they finish in a few ms.
	if elapsed < 200*time.Millisecond {
		t.Errorf("campaign finished in %v; rate limiter not applied", elapsed)
	}
}
