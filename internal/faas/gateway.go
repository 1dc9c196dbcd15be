package faas

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/providers"
)

// Gateway exposes a Platform over real HTTP. Requests are routed by Host
// header to the function deployed under that FQDN, so a prober pointed at
// the gateway behaves exactly as it would against the provider's ingress.
//
// Provider-specific edge semantics are reproduced here:
//   - unknown or deleted functions: 404 Not Found, except AWS, whose edge
//     answers 403 Forbidden (paper §4.4);
//   - internal-only functions: the gateway holds the connection for
//     UnreachableDelay so clients observe a timeout (see hold);
//   - IAM-protected functions: 401 from the platform.
type Gateway struct {
	Platform *Platform
	// Clock supplies the simulated invocation time; defaults to time.Now.
	Clock func() time.Time
	// UnreachableDelay is how long internal-only functions hold the
	// connection before the gateway answers 504. Tests shrink this.
	UnreachableDelay time.Duration

	matcher *providers.Matcher

	// Telemetry; populated by Instrument, no-ops otherwise.
	mRequests *obs.Counter    // gateway_requests_total
	mStatus   [5]*obs.Counter // gateway_responses_{1xx..5xx}_total
}

// Instrument points the gateway's telemetry at reg (and the platform's, for
// cold/warm start counters). A nil registry leaves both un-instrumented.
func (g *Gateway) Instrument(reg *obs.Registry) {
	g.mRequests = reg.Counter("gateway_requests_total")
	for i := range g.mStatus {
		g.mStatus[i] = reg.Counter(fmt.Sprintf("gateway_responses_%dxx_total", i+1))
	}
	if g.Platform != nil {
		g.Platform.Instrument(reg)
	}
}

// NewGateway wraps a platform.
func NewGateway(p *Platform) *Gateway {
	return &Gateway{
		Platform:         p,
		Clock:            time.Now,
		UnreachableDelay: 61 * time.Second,
		matcher:          providers.NewMatcher(providers.All()),
	}
}

// statusWriter captures the response status for the gateway's telemetry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mRequests.Inc()
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	defer func() {
		if i := sw.status/100 - 1; i >= 0 && i < len(g.mStatus) {
			g.mStatus[i].Inc()
		}
	}()
	host := r.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	req := Request{
		Method:  r.Method,
		Path:    r.URL.Path,
		Query:   r.URL.RawQuery,
		Headers: flattenHeader(r.Header),
		Time:    g.now(),
	}
	if r.Body != nil {
		req.Body, _ = io.ReadAll(io.LimitReader(r.Body, 1<<20))
	}

	resp, _, err := g.Platform.Invoke(host, req)
	switch {
	case err == nil:
		for k, v := range resp.Headers {
			w.Header().Set(k, v)
		}
		w.WriteHeader(resp.Status)
		w.Write(resp.Body)
	case errors.Is(err, ErrTimeout):
		// Internal-only: hold the connection so the client times out. A
		// client that gave up gets nothing, not even a late 504 its
		// transport could still deliver as the result.
		if !g.hold(r) {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusGatewayTimeout)
	case errors.Is(err, ErrTooManyRequests):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"message":"Too Many Requests"}`))
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrDeleted):
		g.writeMissing(w, host)
	default:
		w.WriteHeader(http.StatusInternalServerError)
	}
}

// hold keeps an internal-only request open for UnreachableDelay and reports
// whether the client is still connected at the end of it. Over the
// in-memory edge the conn decides at once: a client whose read deadline
// falls within the delay would time out before the gateway answers, so its
// deadline fires now instead of after a sleep. A client without such a
// deadline, or on a kernel socket, is waited out on the wall clock.
func (g *Gateway) hold(r *http.Request) bool {
	ctx := r.Context()
	if c, ok := ctx.Value(edgeConnKey{}).(*edgeConn); ok && c.expirePeer(g.UnreachableDelay) {
		return false
	}
	t := time.NewTimer(g.UnreachableDelay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return ctx.Err() == nil
	}
}

// writeMissing emulates each provider's response for unknown or deleted
// functions.
func (g *Gateway) writeMissing(w http.ResponseWriter, host string) {
	if in, ok := g.matcher.Identify(host); ok && in.ID == providers.AWS {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"Message":"Forbidden"}`))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusNotFound)
	w.Write([]byte("Not Found"))
}

func (g *Gateway) now() time.Time {
	if g.Clock != nil {
		return g.Clock()
	}
	return time.Now()
}

func flattenHeader(h http.Header) map[string]string {
	out := make(map[string]string, len(h))
	for k, vs := range h {
		if len(vs) > 0 {
			out[k] = vs[0]
		}
	}
	return out
}
