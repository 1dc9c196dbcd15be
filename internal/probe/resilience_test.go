package probe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// flakyDialer fails the first n dial attempts with a connection-class error,
// then connects to addr.
func flakyDialer(n int64, addr string) func(ctx context.Context, network, a string) (net.Conn, error) {
	var calls atomic.Int64
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		if calls.Add(1) <= n {
			return nil, errors.New("connection reset by peer")
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
}

func TestProbeRetriesConnFailures(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("recovered"))
	})
	tlsAddr, _, cleanup := newServerPair(t, h)
	defer cleanup()
	reg := obs.NewRegistry()
	p := New(Config{
		DialContext:  flakyDialer(2, tlsAddr),
		Timeout:      2 * time.Second,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	res := p.Probe(context.Background(), "flaky.lambda-url.us-east-1.on.aws")
	if !res.Reachable || !res.HTTPS {
		t.Fatalf("result = %+v, want HTTPS success after retries", res)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two resets, one success)", res.Attempts)
	}
	st := p.Stats()
	if st.Retried != 2 {
		t.Errorf("stats.Retried = %d, want 2", st.Retried)
	}
	if got := reg.Snapshot().Counters["probe_conn_retries_total"]; got != 2 {
		t.Errorf("probe_conn_retries_total = %d, want 2", got)
	}
}

func TestProbeRetriesExhaustedKeepConnFailure(t *testing.T) {
	p := New(Config{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return nil, errors.New("connection reset by peer")
		},
		Timeout:      time.Second,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	res := p.Probe(context.Background(), "dead.lambda-url.us-east-1.on.aws")
	if res.Reachable || res.Failure != FailConn {
		t.Fatalf("result = %+v, want conn failure", res)
	}
	// (1 try + 1 retry) per scheme.
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", res.Attempts)
	}
}

func TestProbeTimeoutsDoNotRetry(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	p := New(Config{
		DialContext:  schemeDialer(tlsAddr, plainAddr),
		Timeout:      100 * time.Millisecond,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	res := p.Probe(context.Background(), "slow.lambda-url.us-east-1.on.aws")
	if res.Failure != FailTimeout {
		t.Fatalf("failure = %q, want timeout", res.Failure)
	}
	// A timeout already consumed the full request budget of wall time; each
	// scheme gets exactly one attempt regardless of Retries.
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (no retry after timeouts)", res.Attempts)
	}
	if p.Stats().Retried != 0 {
		t.Errorf("stats.Retried = %d, want 0", p.Stats().Retried)
	}
}

// recordingBreaker implements the Breaker interface with a scripted Allow.
type recordingBreaker struct {
	mu      sync.Mutex
	allow   bool
	allowed []string
	results map[string][]bool
}

func (rb *recordingBreaker) Allow(key string) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.allowed = append(rb.allowed, key)
	return rb.allow
}

func (rb *recordingBreaker) Record(key string, success bool) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.results == nil {
		rb.results = map[string][]bool{}
	}
	rb.results[key] = append(rb.results[key], success)
}

func TestProbeBreakerShortCircuits(t *testing.T) {
	contacted := false
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { contacted = true })
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	rb := &recordingBreaker{allow: false}
	reg := obs.NewRegistry()
	p := New(Config{
		DialContext: schemeDialer(tlsAddr, plainAddr),
		Timeout:     time.Second,
		Breaker:     rb,
		BreakerKey:  func(string) string { return "aws" },
		Metrics:     reg,
	})
	res := p.Probe(context.Background(), "f.lambda-url.us-east-1.on.aws")
	if res.Failure != FailBreaker || res.Attempts != 0 || contacted {
		t.Fatalf("result = %+v contacted=%v, want short-circuit without contact", res, contacted)
	}
	if len(rb.allowed) != 1 || rb.allowed[0] != "aws" {
		t.Errorf("breaker consulted with keys %v, want [aws]", rb.allowed)
	}
	if len(rb.results["aws"]) != 0 {
		t.Errorf("short-circuited probe recorded an outcome: %v", rb.results["aws"])
	}
	if p.Stats().BreakerSkips != 1 {
		t.Errorf("stats.BreakerSkips = %d, want 1", p.Stats().BreakerSkips)
	}
	if got := reg.Snapshot().Counters["probe_breaker_skips_total"]; got != 1 {
		t.Errorf("probe_breaker_skips_total = %d, want 1", got)
	}

	// Allowed probes must feed their outcome back.
	rb.allow = true
	if res := p.Probe(context.Background(), "f.lambda-url.us-east-1.on.aws"); !res.Reachable {
		t.Fatalf("result = %+v", res)
	}
	if got := rb.results["aws"]; len(got) != 1 || !got[0] {
		t.Errorf("breaker outcomes = %v, want one success", got)
	}
}

// TestProbeBodyDrainHonorsCancellation is the regression test for the body
// drain hanging past context cancellation: an endpoint that trickles its body
// forever must not hold a probe (and its concurrency slot) hostage.
func TestProbeBodyDrainHonorsCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		w.Write([]byte("partial "))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Keep the connection open, never finishing the body.
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	reg := obs.NewRegistry()
	p := New(Config{
		DialContext: schemeDialer(tlsAddr, plainAddr),
		Timeout:     30 * time.Second, // the client timeout must not be what saves us
		Metrics:     reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := p.Probe(ctx, "drip.lambda-url.us-east-1.on.aws")
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("probe returned after %v; body drain ignored cancellation", elapsed)
	}
	if res.Reachable {
		t.Errorf("result = %+v, want failure after cancelled drain", res)
	}
	if got := reg.Snapshot().Counters["probe_body_aborts_total"]; got < 1 {
		t.Errorf("probe_body_aborts_total = %d, want >= 1", got)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	p := New(Config{Retries: 2, RetryBackoff: 20 * time.Millisecond})
	// The jitter stream is a pure function of (fqdn, try); timing the sleep
	// twice and comparing would be flaky, so pin the weaker property that the
	// wait respects cancellation immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if p.backoff(ctx, "x.lambda-url.us-east-1.on.aws", 5) {
		t.Error("backoff reported success under a cancelled context")
	}
	if time.Since(start) > time.Second {
		t.Error("backoff slept despite cancelled context")
	}
}

func TestClassifyInjectedErrors(t *testing.T) {
	if got := classifyError(errors.New("dial tcp: lookup x: no such host")); got != FailDNS {
		t.Errorf("dns class = %q", got)
	}
	if got := classifyError(errors.New("fault: injected connection reset")); got != FailConn {
		t.Errorf("reset class = %q, want conn (retryable)", got)
	}
	if got := classifyError(errors.New("context deadline exceeded")); got != FailTimeout {
		t.Errorf("deadline class = %q", got)
	}
	if !strings.Contains(string(FailBreaker), "breaker") {
		t.Errorf("FailBreaker = %q", FailBreaker)
	}
}

// TestClassifyErrorIdentity: timeouts are recognised by identity through
// any wrapping. A read deadline prints as "i/o timeout", and under the
// transport's %w wrap url.Error.Timeout no longer reports it; read as a
// string it would land in FailConn and put the target on the C2 list.
func TestClassifyErrorIdentity(t *testing.T) {
	urlErr := func(err error) error { return &url.Error{Op: "Get", URL: "https://x/", Err: err} }
	cases := []struct {
		name string
		err  error
		want FailureReason
	}{
		{"wrapped read deadline", urlErr(fmt.Errorf("net/http: HTTP/1.x transport connection broken: %w", os.ErrDeadlineExceeded)), FailTimeout},
		{"wrapped context deadline", urlErr(fmt.Errorf("dial: %w", context.DeadlineExceeded)), FailTimeout},
		{"net.Error timeout", &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}, FailTimeout},
		{"EOF", urlErr(io.EOF), FailConn},
		{"reset", urlErr(&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}), FailConn},
		{"cancelled", urlErr(context.Canceled), FailConn},
		{"no such host", urlErr(&net.OpError{Op: "dial", Net: "tcp", Err: &net.DNSError{Err: "no such host", Name: "x", IsNotFound: true}}), FailDNS},
		{"nil", nil, FailConn},
	}
	for _, c := range cases {
		if got := classifyError(c.err); got != c.want {
			t.Errorf("%s: classifyError(%v) = %q, want %q", c.name, c.err, got, c.want)
		}
	}
}
