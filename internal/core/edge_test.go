package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/c2"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/workload"
)

// TestEdgeMatchesLoopback is the differential oracle for the in-memory
// edge: the probe stage's prober sweeps the same population through the
// same gateway twice, once over faas.Edge and once over httptest listeners
// on loopback, and every target must record the same result. Only the time
// a held request takes may differ.
func TestEdgeMatchesLoopback(t *testing.T) {
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.002})
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, c2.DefaultDB())
	cfg := Config{ProbeTimeout: 2 * time.Second, ProbeConcurrency: 32}
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	resolver := dnssim.NewResolver()
	workload.MarkDeleted(pop, resolver)
	targets := pop.ProbeTargets()

	edge, err := faas.StartEdge(gw)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	viaEdge := probe.New(probeConfig(cfg, pop, resolver, edge, nil, nil)).ProbeAll(context.Background(), targets)

	plainSrv := httptest.NewServer(gw)
	defer plainSrv.Close()
	tlsSrv := httptest.NewUnstartedServer(gw)
	tlsSrv.Config.ErrorLog = log.New(io.Discard, "", 0)
	tlsSrv.StartTLS()
	defer tlsSrv.Close()
	httpOnly := httpOnlyFQDNs(pop)
	loopCfg := probeConfig(cfg, pop, resolver, nil, nil, nil)
	loopCfg.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, port, _ := net.SplitHostPort(addr)
		var d net.Dialer
		if port != "443" {
			return d.DialContext(ctx, network, plainSrv.Listener.Addr().String())
		}
		if httpOnly[strings.ToLower(host)] {
			return nil, fmt.Errorf("connection refused (no TLS listener for %s)", host)
		}
		return d.DialContext(ctx, network, tlsSrv.Listener.Addr().String())
	}
	viaLoop := probe.New(loopCfg).ProbeAll(context.Background(), targets)

	classes := map[string]int{}
	for i, fqdn := range targets {
		e, l := &viaEdge[i], &viaLoop[i]
		if e.Reachable != l.Reachable || e.Failure != l.Failure || e.HTTPS != l.HTTPS ||
			e.Status != l.Status || e.ContentType != l.ContentType || e.Location != l.Location ||
			!bytes.Equal(e.Body, l.Body) || e.Attempts != l.Attempts {
			t.Errorf("%s: edge and loopback disagree\n  edge:     %+v\n  loopback: %+v", fqdn, summarise(e), summarise(l))
		}
		switch {
		case e.Failure == probe.FailDNS:
			classes["dns"]++
		case e.Failure == probe.FailTimeout:
			classes["timeout"]++
		case e.Reachable && !e.HTTPS:
			classes["http-fallback"]++
		case e.Status == 200:
			classes["200"]++
		case e.Status == 403 || e.Status == 404:
			classes["403/404"]++
		}
	}
	t.Logf("target classes: %v", classes)
	for _, c := range []string{"200", "403/404", "http-fallback", "timeout", "dns"} {
		if classes[c] == 0 {
			t.Errorf("no %s target in the sample; the oracle does not cover it (classes %v)", c, classes)
		}
	}
}

// summarise drops the parts of a result that may differ between edges.
func summarise(r *probe.Result) probe.Result {
	s := *r
	s.Elapsed = 0
	if len(s.Body) > 64 {
		s.Body = s.Body[:64]
	}
	return s
}

// TestEdgeHeldProbeEndsAtOnce: over the in-memory edge a probe of an
// internal-only function is a timeout without the wait. The prober's
// Timeout and the gateway's hold are both hours long, so the probe can only
// end early if the prober publishes its deadline on the conn and the
// gateway's hold fires it.
func TestEdgeHeldProbeEndsAtOnce(t *testing.T) {
	platform := faas.NewPlatform()
	fqdn := "held.lambda-url.us-east-1.on.aws"
	platform.Deploy(fqdn, providers.AWS, "us-east-1", faas.Config{Access: faas.InternalOnly},
		func(*faas.InvokeContext) faas.Response { return faas.Response{Status: 200} }, time.Time{})
	gw := faas.NewGateway(platform)
	gw.UnreachableDelay = 2 * time.Hour
	edge, err := faas.StartEdge(gw)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	p := probe.New(probe.Config{Timeout: time.Hour, DialContext: simDialer(edge, nil)})
	done := make(chan probe.Result, 1)
	go func() { done <- p.Probe(context.Background(), fqdn) }()
	select {
	case r := <-done:
		if r.Failure != probe.FailTimeout || r.Attempts != 2 {
			t.Errorf("held probe: failure %q after %d attempts, want a timeout on both schemes", r.Failure, r.Attempts)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("held probe waited instead of timing out at once")
	}
}
