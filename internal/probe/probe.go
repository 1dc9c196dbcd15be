// Package probe implements the active information collection of paper §3.3:
// each candidate function domain receives a parameter-free GET over HTTPS,
// falling back to HTTP on failure; domains failing both are marked
// unreachable. A uniform timeout (60 s, the default execution cap of most
// providers) applies, redirects are recorded rather than followed (their
// Location headers feed the abuse analysis), and the ethics controls of
// Appendix A are enforced in code: a hard cap on requests per function, an
// opt-out list, and a User-Agent identifying the measurement and a contact
// point.
package probe

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pdns"
)

// FailureReason classifies why a domain was unreachable.
type FailureReason string

const (
	FailNone    FailureReason = ""
	FailDNS     FailureReason = "dns"     // resolution failed (deleted Tencent functions)
	FailTimeout FailureReason = "timeout" // both schemes timed out
	FailConn    FailureReason = "conn"    // connection refused / reset
	FailOptOut  FailureReason = "opt-out" // owner opted out; never contacted
	FailBudget  FailureReason = "budget"  // per-function request cap exhausted
	FailBreaker FailureReason = "breaker" // provider circuit open; never contacted
)

// Breaker short-circuits probes to keys (typically providers) that are
// failing consistently. It is satisfied by fault.Breaker; the tiny local
// interface keeps probe decoupled from the chaos layer.
type Breaker interface {
	// Allow reports whether a request for key may proceed.
	Allow(key string) bool
	// Record feeds back the outcome of an allowed request.
	Record(key string, success bool)
}

// Result is the recorded outcome of probing one function domain.
type Result struct {
	FQDN        string
	Reachable   bool
	Failure     FailureReason
	HTTPS       bool // reached over HTTPS (vs HTTP fallback)
	Status      int
	ContentType string
	Location    string // redirect target, if Status is 3xx
	Body        []byte
	Attempts    int
	Elapsed     time.Duration
}

// Empty reports whether a 200 response carried no content; only non-empty
// 200s feed the abuse analysis (96.01% of 200s in the paper).
func (r *Result) Empty() bool { return r.Status == 200 && len(r.Body) == 0 }

// Config tunes a Prober.
type Config struct {
	// Timeout per request; defaults to 60s like most providers' caps.
	Timeout time.Duration
	// MaxBody caps how many response bytes are retained.
	MaxBody int64
	// Concurrency bounds in-flight probes in ProbeAll.
	Concurrency int
	// MaxAttempts caps requests per function across both schemes
	// (Appendix A limits probes to fewer than three per function).
	MaxAttempts int
	// UserAgent identifies the research probe; Appendix A additionally ran
	// an explanation page with contact details on the probing host.
	UserAgent string
	// Resolve pre-checks DNS for the domain; a non-nil error marks the
	// domain unreachable with FailDNS before any HTTP contact. Nil skips
	// the check (the system resolver decides during dialing).
	Resolve func(fqdn string) error
	// DialContext overrides transport dialing; the simulation points this
	// at the in-process gateway. TLS verification is relaxed only when a
	// custom dialer is installed, because the simulated endpoints present
	// a test certificate for a different name.
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// DialTLSContext, when set, dials https:// requests in DialContext's
	// place. net/http treats its conn as already secured: it runs no
	// handshake over it, and the request keeps its https scheme. The
	// simulation reaches the edge's port-443 listener, which speaks plain
	// HTTP framing, this way. Nil leaves https:// to DialContext and a real
	// TLS handshake.
	DialTLSContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// RatePerSecond caps the campaign-wide request rate, a politeness
	// control on top of the per-function caps; 0 disables.
	RatePerSecond float64
	// Retries is how many extra attempts each scheme gets after a
	// connection-class failure (resets and refusals — not timeouts, which
	// already consumed the full request budget of time, and not DNS
	// failures, which fail before any contact). 0 keeps the seed behavior
	// of exactly one try per scheme.
	Retries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, plus deterministic per-FQDN jitter. Defaults to
	// 50ms when Retries > 0.
	RetryBackoff time.Duration
	// Breaker, when non-nil, short-circuits probes whose BreakerKey is
	// tripped open; skipped probes record FailBreaker with zero attempts.
	Breaker Breaker
	// BreakerKey maps an FQDN to its breaker key (typically the provider
	// name); nil uses the FQDN itself.
	BreakerKey func(fqdn string) string
	// Provider maps an FQDN to the provider label on the campaign's
	// dimensional metrics (probe_outcomes_total, per-provider request
	// latency). Nil, or an empty return, labels the probe "unknown".
	Provider func(fqdn string) string
	// KeepTLSVerify retains certificate verification even with a custom
	// DialContext. Fault-injection wrappers around the real dialer set
	// this; the in-process simulation (which presents a self-signed test
	// certificate) leaves it false.
	KeepTLSVerify bool
	// Metrics, when non-nil, receives the campaign's live telemetry:
	// per-request latency histogram, in-flight gauge, and retry/fallback/
	// failure counters. A nil registry costs one nil check per event.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.MaxAttempts <= 0 {
		// One HTTPS try + one HTTP fallback, each with its retries. With
		// Retries == 0 this is the seed's cap of 2 (Appendix A limits
		// probes to fewer than three per function); retry campaigns
		// consciously raise the cap to match their configured attempts.
		c.MaxAttempts = 2 * (1 + c.Retries)
	}
	if c.Retries > 0 && c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.UserAgent == "" {
		c.UserAgent = "serverless-measurement-research/1.0 (opt-out: see probe host port 80)"
	}
	return c
}

// Prober performs the collection.
type Prober struct {
	cfg    Config
	client *http.Client

	// Campaign rate cap: requests take slots interval apart, handed out in
	// call order from next (guarded by rateMu). interval is 0 when uncapped.
	interval time.Duration
	rateMu   sync.Mutex
	next     time.Time

	// Live telemetry; every field is a no-op when Config.Metrics is nil.
	mLatency    *obs.Histogram // probe_request_seconds: per-request wall time
	mInflight   *obs.Gauge     // probe_inflight: probes currently executing
	mRequests   *obs.Counter   // probe_requests_total: HTTP requests issued
	mRetries    *obs.Counter   // probe_retries_total: attempts beyond the first
	mConnRetry  *obs.Counter   // probe_conn_retries_total: backoff retries after conn failures
	mFallbacks  *obs.Counter   // probe_fallbacks_total: reached only via HTTP
	mDNSFail    *obs.Counter   // probe_dns_failures_total
	mTimeouts   *obs.Counter   // probe_timeouts_total
	mOptOuts    *obs.Counter   // probe_optouts_total
	mBreakerSk  *obs.Counter   // probe_breaker_skips_total: short-circuited by the breaker
	mBodyAborts *obs.Counter   // probe_body_aborts_total: body drains cut by cancellation

	// Dimensional telemetry (nil-safe like the rest).
	mOutcomes   *obs.CounterVec   // probe_outcomes_total{provider,outcome,attempt_class}
	mLatencyVec *obs.HistogramVec // probe_request_seconds{provider}: per-request wall time

	mu     sync.Mutex
	optOut map[string]struct{}
	stats  Stats
}

// Stats aggregates a probing campaign.
type Stats struct {
	Probed       int
	Reachable    int
	Unreachable  int
	DNSFailures  int
	HTTPSOnly    int // reached via HTTPS
	Fallbacks    int // needed the HTTP fallback
	Requests     int // total HTTP requests issued
	Retried      int // backoff retries after connection-class failures
	BreakerSkips int // probes short-circuited by an open breaker
}

// New builds a Prober.
func New(cfg Config) *Prober {
	cfg = cfg.withDefaults()
	tr := &http.Transport{
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 2,
		DisableKeepAlives:   true,
	}
	if cfg.DialContext != nil {
		tr.DialContext = cfg.DialContext
		if !cfg.KeepTLSVerify {
			// A custom dialer that reaches real TLS listeners (the
			// loopback oracle, scfbench's traced probe pass) gets P-256
			// alone. Its assembly implementation (amd64, arm64) costs a
			// fraction of X25519's generic field arithmetic once the race
			// detector instruments that: under -race, X25519 doubles a
			// handshaking sweep's CPU, and with it every request's
			// latency in a CPU-bound sweep.
			tr.TLSClientConfig = &tls.Config{
				InsecureSkipVerify: true,
				CurvePreferences:   []tls.CurveID{tls.CurveP256},
			}
		}
	}
	tr.DialTLSContext = cfg.DialTLSContext
	var interval time.Duration
	if cfg.RatePerSecond > 0 {
		interval = time.Duration(float64(time.Second) / cfg.RatePerSecond)
	}
	return &Prober{
		cfg:         cfg,
		interval:    interval,
		mLatency:    cfg.Metrics.Histogram("probe_request_seconds", nil),
		mInflight:   cfg.Metrics.Gauge("probe_inflight"),
		mRequests:   cfg.Metrics.Counter("probe_requests_total"),
		mRetries:    cfg.Metrics.Counter("probe_retries_total"),
		mConnRetry:  cfg.Metrics.Counter("probe_conn_retries_total"),
		mFallbacks:  cfg.Metrics.Counter("probe_fallbacks_total"),
		mDNSFail:    cfg.Metrics.Counter("probe_dns_failures_total"),
		mTimeouts:   cfg.Metrics.Counter("probe_timeouts_total"),
		mOptOuts:    cfg.Metrics.Counter("probe_optouts_total"),
		mBreakerSk:  cfg.Metrics.Counter("probe_breaker_skips_total"),
		mBodyAborts: cfg.Metrics.Counter("probe_body_aborts_total"),
		mOutcomes:   cfg.Metrics.CounterVec("probe_outcomes_total", "provider", "outcome", "attempt_class"),
		mLatencyVec: cfg.Metrics.HistogramVec("probe_request_seconds", nil, "provider"),
		client: &http.Client{
			Transport: tr,
			Timeout:   cfg.Timeout,
			// Record redirects, do not follow them: Location headers are
			// evidence for the hidden-illicit-service analysis (§5.3).
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// OptOut registers a function owner's opt-out; the domain is never
// contacted again (Appendix A).
func (p *Prober) OptOut(fqdn string) {
	p.mu.Lock()
	if p.optOut == nil {
		p.optOut = make(map[string]struct{})
	}
	p.optOut[strings.ToLower(fqdn)] = struct{}{}
	p.mu.Unlock()
}

func (p *Prober) optedOut(fqdn string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.optOut[strings.ToLower(fqdn)]
	return ok
}

// Stats returns a snapshot of campaign counters.
func (p *Prober) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Probe contacts one function domain: HTTPS first, HTTP on failure. With
// Retries configured, connection-class failures (resets, refusals) earn up
// to Retries extra attempts per scheme with exponential backoff and
// deterministic per-FQDN jitter; timeouts and DNS failures never retry.
//
// res is a named result so the deferred bookkeeping, which stamps Elapsed,
// writes into the value the caller receives rather than a copy.
func (p *Prober) Probe(ctx context.Context, fqdn string) (res Result) {
	start := time.Now()
	res = Result{FQDN: fqdn}
	connRetries := 0
	provider := p.provider(fqdn)
	p.mInflight.Add(1)
	defer func() {
		res.Elapsed = time.Since(start)
		p.mInflight.Add(-1)
		if res.Attempts > 1 {
			p.mRetries.Add(int64(res.Attempts - 1))
		}
		outcome := "ok"
		if res.Failure != FailNone {
			outcome = string(res.Failure)
		}
		class := "first"
		if connRetries > 0 {
			class = "retried"
		}
		p.mOutcomes.With(provider, outcome, class).Inc()
		switch res.Failure {
		case FailDNS:
			p.mDNSFail.Inc()
		case FailTimeout:
			p.mTimeouts.Inc()
		case FailOptOut:
			p.mOptOuts.Inc()
		case FailBreaker:
			p.mBreakerSk.Inc()
		}
		if res.Reachable && !res.HTTPS {
			p.mFallbacks.Inc()
		}
		p.mu.Lock()
		p.stats.Probed++
		p.stats.Requests += res.Attempts
		p.stats.Retried += connRetries
		if res.Failure == FailBreaker {
			p.stats.BreakerSkips++
		}
		if res.Reachable {
			p.stats.Reachable++
			if res.HTTPS {
				p.stats.HTTPSOnly++
			} else {
				p.stats.Fallbacks++
			}
		} else {
			p.stats.Unreachable++
			if res.Failure == FailDNS {
				p.stats.DNSFailures++
			}
		}
		p.mu.Unlock()
	}()

	if p.optedOut(fqdn) {
		res.Failure = FailOptOut
		return res
	}
	if p.cfg.Resolve != nil {
		if err := p.cfg.Resolve(fqdn); err != nil {
			res.Failure = FailDNS
			return res
		}
	}
	breakerKey := fqdn
	if p.cfg.BreakerKey != nil {
		breakerKey = p.cfg.BreakerKey(fqdn)
	}
	if p.cfg.Breaker != nil && !p.cfg.Breaker.Allow(breakerKey) {
		res.Failure = FailBreaker
		return res
	}

	var lastErr error
	for _, scheme := range []string{"https", "http"} {
		for try := 0; ; try++ {
			if res.Attempts >= p.cfg.MaxAttempts {
				res.Failure = FailBudget
				p.recordBreaker(breakerKey, false)
				return res
			}
			res.Attempts++
			ok, err := p.tryScheme(ctx, scheme, fqdn, provider, &res)
			if ok {
				res.Reachable = true
				res.HTTPS = scheme == "https"
				res.Failure = FailNone
				p.recordBreaker(breakerKey, true)
				return res
			}
			lastErr = err
			if try >= p.cfg.Retries || ctx.Err() != nil || classifyError(err) != FailConn {
				break
			}
			connRetries++
			p.mConnRetry.Inc()
			if !p.backoff(ctx, fqdn, try) {
				break
			}
		}
	}
	res.Failure = classifyError(lastErr)
	// The breaker tracks endpoint-health failures only: connection resets
	// and timeouts trip it; DNS and budget outcomes never contacted (or
	// deliberately stopped contacting) the provider's edge.
	p.recordBreaker(breakerKey, res.Failure != FailConn && res.Failure != FailTimeout)
	return res
}

func (p *Prober) recordBreaker(key string, success bool) {
	if p.cfg.Breaker != nil {
		p.cfg.Breaker.Record(key, success)
	}
}

// provider resolves the dimensional-metrics label for an FQDN.
func (p *Prober) provider(fqdn string) string {
	if p.cfg.Provider != nil {
		if name := p.cfg.Provider(fqdn); name != "" {
			return name
		}
	}
	return "unknown"
}

// backoff sleeps before retry number try: RetryBackoff doubled per retry,
// plus up to 50% jitter drawn from a per-FQDN deterministic stream so
// identically-seeded campaigns pace identically. Returns false if the
// context was cancelled while waiting.
func (p *Prober) backoff(ctx context.Context, fqdn string, try int) bool {
	d := p.cfg.RetryBackoff << uint(try)
	if d <= 0 {
		return ctx.Err() == nil
	}
	// splitmix64 over (fqdn hash, try): cheap, allocation-free jitter.
	h := pdns.HashFQDN(fqdn) + uint64(try)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	jitter := time.Duration(h % uint64(d/2+1))
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// pace waits for the caller's slot under the campaign rate cap. It needs no
// goroutine, so nothing outlives the Prober; a caller whose ctx ends while
// waiting gives up its slot unused.
func (p *Prober) pace(ctx context.Context) error {
	if p.interval <= 0 {
		return nil
	}
	p.rateMu.Lock()
	now := time.Now()
	slot := p.next
	if slot.Before(now) {
		slot = now
	}
	p.next = slot.Add(p.interval)
	p.rateMu.Unlock()
	wait := slot.Sub(now)
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryScheme issues one parameter-free GET, honouring the campaign rate cap.
func (p *Prober) tryScheme(ctx context.Context, scheme, fqdn, provider string, res *Result) (bool, error) {
	if err := p.pace(ctx); err != nil {
		return false, err
	}
	reqStart := time.Now()
	// Publish the request's deadline on the conn. On a kernel socket this is
	// the moment the client's Timeout fires anyway; on the in-memory edge it
	// is what lets a held request end as a timeout without a wait.
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		info.Conn.SetDeadline(reqStart.Add(p.cfg.Timeout))
	}}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodGet, scheme+"://"+fqdn+"/", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("User-Agent", p.cfg.UserAgent)
	p.mRequests.Inc()
	resp, err := p.client.Do(req)
	elapsed := time.Since(reqStart).Seconds()
	p.mLatency.Observe(elapsed)
	p.mLatencyVec.With(provider).Observe(elapsed)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := p.drainBody(ctx, resp.Body)
	if err != nil && (len(body) == 0 || ctx.Err() != nil) {
		return false, err
	}
	res.Status = resp.StatusCode
	res.ContentType = resp.Header.Get("Content-Type")
	res.Location = resp.Header.Get("Location")
	res.Body = body
	return true, nil
}

// drainBody reads up to MaxBody bytes, honouring context cancellation while
// the read is in flight: a stalled or slow body (an endpoint trickling bytes
// past the run's deadline) cannot outlive the campaign's cancellation. On
// cancel the body is closed to unblock the reader and whatever arrived so
// far is returned with ctx's error.
func (p *Prober) drainBody(ctx context.Context, body io.ReadCloser) ([]byte, error) {
	type drained struct {
		b   []byte
		err error
	}
	ch := make(chan drained, 1)
	go func() {
		b, err := io.ReadAll(io.LimitReader(body, p.cfg.MaxBody))
		ch <- drained{b, err}
	}()
	select {
	case d := <-ch:
		return d.b, d.err
	case <-ctx.Done():
		p.mBodyAborts.Inc()
		body.Close() // unblocks the pending Read
		d := <-ch
		return d.b, ctx.Err()
	}
}

// classifyError sorts a request error into a failure reason. Timeouts are
// recognised by identity first: a passed read deadline prints as "i/o
// timeout", and the transport can wrap it where url.Error.Timeout no longer
// sees it. The substring checks remain for errors built from strings, such
// as the fault injector's.
func classifyError(err error) FailureReason {
	if err == nil {
		return FailConn
	}
	var nerr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) ||
		(errors.As(err, &nerr) && nerr.Timeout()) {
		return FailTimeout
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "Client.Timeout"), strings.Contains(msg, "deadline"):
		return FailTimeout
	case strings.Contains(msg, "no such host"):
		return FailDNS
	default:
		return FailConn
	}
}

// ProbeAll probes every domain with bounded concurrency, preserving input
// order in the results.
func (p *Prober) ProbeAll(ctx context.Context, fqdns []string) []Result {
	results := make([]Result, len(fqdns))
	sem := make(chan struct{}, p.cfg.Concurrency)
	var wg sync.WaitGroup
	for i, fqdn := range fqdns {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, fqdn string) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = p.Probe(ctx, fqdn)
		}(i, fqdn)
	}
	wg.Wait()
	return results
}
