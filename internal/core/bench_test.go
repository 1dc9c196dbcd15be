package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/workload"
)

// BenchmarkProbeTarget is one Prober.Probe per op over faas.StartEdge, with
// the probe stage's own probeConfig, for each class of target the golden
// sweep meets: a 200 over HTTPS, a missing function's 404 over HTTPS, an
// HTTP-only function reached by the fallback, and an internal-only function
// the gateway holds until both schemes time out.
func BenchmarkProbeTarget(b *testing.B) {
	const (
		ok       = "ok.lambda-url.us-east-1.on.aws"
		httpOnly = "plain.lambda-url.us-east-1.on.aws"
		held     = "held.lambda-url.us-east-1.on.aws"
		missing  = "gone-0123456789-uc.a.run.app"
	)
	platform := faas.NewPlatform()
	body := []byte(`{"status":"ok"}`)
	handler := func(*faas.InvokeContext) faas.Response {
		return faas.Response{Status: 200, Headers: map[string]string{"Content-Type": "application/json"}, Body: body}
	}
	for _, fqdn := range []string{ok, httpOnly} {
		platform.Deploy(fqdn, providers.AWS, "us-east-1", faas.Config{}, handler, time.Time{})
	}
	platform.Deploy(held, providers.AWS, "us-east-1", faas.Config{Access: faas.InternalOnly}, handler, time.Time{})
	cfg := Config{ProbeTimeout: 2 * time.Second, ProbeConcurrency: 1}
	gw := faas.NewGateway(platform)
	// Each invocation a simulated minute after the last, so executions
	// complete and no function reaches its concurrency limit.
	start, calls := workload.DeployWindowClock()(), atomic.Int64{}
	gw.Clock = func() time.Time { return start.Add(time.Duration(calls.Add(1)) * time.Minute) }
	gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	edge := faas.StartEdge(gw)
	defer edge.Close()
	pop := &workload.Population{Functions: []*workload.Function{{FQDN: httpOnly, HTTPOnly: true}}}
	p := probe.New(probeConfig(cfg, pop, dnssim.NewResolver(), edge, nil, nil))

	for _, tc := range []struct {
		name, fqdn string
		want       func(r *probe.Result) bool
	}{
		{"https-ok", ok, func(r *probe.Result) bool { return r.HTTPS && r.Status == 200 }},
		{"https-missing", missing, func(r *probe.Result) bool { return r.HTTPS && r.Status == 404 }},
		{"http-fallback", httpOnly, func(r *probe.Result) bool { return r.Reachable && !r.HTTPS && r.Status == 200 }},
		{"held", held, func(r *probe.Result) bool { return r.Failure == probe.FailTimeout && r.Attempts == 2 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := p.Probe(context.Background(), tc.fqdn); !tc.want(&r) {
					b.Fatalf("%s: unexpected result %+v", tc.fqdn, summarise(&r))
				}
			}
		})
	}
}
