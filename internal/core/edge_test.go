package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/c2"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/ti"
	"repro/internal/workload"
)

// TestEdgeMatchesLoopback is the differential oracle for the in-memory
// edge: the probe stage's prober sweeps the same population through the
// same gateway twice, once over faas.Edge and once over httptest listeners
// on loopback, and every target must record the same result. Only the time
// a held request takes may differ. The edge's HTTPS is handshake-free; the
// loopback side runs real TLS handshakes over DialContext. Under heavy
// chaos each side gets its own injector, so the fault schedules match and
// every retry and fallback must land alike.
func TestEdgeMatchesLoopback(t *testing.T) {
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.002})
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, c2.DefaultDB())
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 20 * time.Second
	resolver := dnssim.NewResolver()
	workload.MarkDeleted(pop, resolver)
	targets := pop.ProbeTargets()

	edge := faas.StartEdge(gw)
	defer edge.Close()
	plainSrv := httptest.NewServer(gw)
	defer plainSrv.Close()
	tlsSrv := httptest.NewUnstartedServer(gw)
	tlsSrv.Config.ErrorLog = log.New(io.Discard, "", 0)
	tlsSrv.StartTLS()
	defer tlsSrv.Close()
	httpOnly := httpOnlyFQDNs(pop)
	loopDial := func(ctx context.Context, network, addr string) (net.Conn, error) {
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

	for _, tc := range []struct {
		name    string
		chaos   fault.Profile
		retries int
		classes []string // outcome classes the sample must cover
	}{
		{"clean", fault.None(), 0, []string{"200", "403/404", "http-fallback", "timeout", "dns"}},
		{"heavy-chaos", fault.Heavy().WithSeed(1), 2, []string{"200", "403/404", "http-fallback", "timeout", "dns", "conn", "retried"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ProbeTimeout: 2 * time.Second, ProbeConcurrency: 32, ProbeRetries: tc.retries, ProbeRetryBackoff: time.Millisecond}
			sweep := func(edge *faas.Edge, dial fault.DialFunc) ([]probe.Result, obs.Snapshot) {
				in := fault.New(tc.chaos)
				in.SetSpikeDelay(3 * cfg.ProbeTimeout)
				reg := obs.NewRegistry()
				in.Instrument(reg)
				pc := probeConfig(cfg, pop, resolver, edge, in, reg)
				if dial != nil {
					// Real TLS: clear the handshake-free hook, so the
					// transport handshakes over DialContext.
					pc.DialContext, pc.DialTLSContext = in.WrapDial(dial), nil
				}
				return probe.New(pc).ProbeAll(context.Background(), targets), reg.Snapshot()
			}
			viaEdge, edgeSnap := sweep(edge, nil)
			viaLoop, loopSnap := sweep(nil, loopDial)

			for _, m := range degradationMetrics {
				if m.stage == "probe" && edgeSnap.Counters[m.metric] != loopSnap.Counters[m.metric] {
					t.Errorf("%s: edge %d, loopback %d", m.metric, edgeSnap.Counters[m.metric], loopSnap.Counters[m.metric])
				}
			}
			classes := map[string]int{}
			for i, fqdn := range targets {
				e, l := &viaEdge[i], &viaLoop[i]
				if e.Reachable != l.Reachable || e.Failure != l.Failure || e.HTTPS != l.HTTPS ||
					e.Status != l.Status || e.ContentType != l.ContentType || e.Location != l.Location ||
					!bytes.Equal(e.Body, l.Body) || e.Attempts != l.Attempts {
					t.Errorf("%s: edge and loopback disagree\n  edge:     %+v\n  loopback: %+v", fqdn, summarise(e), summarise(l))
				}
				if e.Attempts > 2 {
					classes["retried"]++
				}
				switch {
				case e.Failure == probe.FailDNS:
					classes["dns"]++
				case e.Failure == probe.FailTimeout:
					classes["timeout"]++
				case e.Failure == probe.FailConn:
					classes["conn"]++
				case e.Reachable && !e.HTTPS:
					classes["http-fallback"]++
				case e.Status == 200:
					classes["200"]++
				case e.Status == 403 || e.Status == 404:
					classes["403/404"]++
				}
			}
			t.Logf("target classes: %v", classes)
			for _, c := range tc.classes {
				if classes[c] == 0 {
					t.Errorf("no %s target in the sample; the oracle does not cover it (classes %v)", c, classes)
				}
			}
			if tc.chaos.Enabled() && edgeSnap.Counters["fault_truncations_injected_total"] == 0 {
				t.Error("no truncation injected; the oracle does not cover it")
			}
		})
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
	edge := faas.StartEdge(gw)
	defer edge.Close()
	dial := simDialer(edge, nil)
	p := probe.New(probe.Config{Timeout: time.Hour, DialContext: dial, DialTLSContext: dial})
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

// TestScanC2SortsByHost feeds scanC2 eight relay hosts in descending order.
// Scans finish in whatever order the scheduler picks, so the detections, and
// the four hosts seedTI hands threat intelligence, are only stable if
// scanC2 sorts them: by host, each host's in DB order.
func TestScanC2SortsByHost(t *testing.T) {
	db := c2.DefaultDB()
	platform := faas.NewPlatform()
	var hosts []string
	for i := 8; i >= 1; i-- {
		fqdn := fmt.Sprintf("relay%d.lambda-url.us-east-1.on.aws", i)
		hosts = append(hosts, fqdn)
		platform.Deploy(fqdn, providers.AWS, "us-east-1", faas.Config{}, func(ctx *faas.InvokeContext) faas.Response {
			r := ctx.Request
			status, ct, body, _ := c2.BannerResponse(db, c2.FamilyCobaltStrike, r.Method, r.Path, r.Headers, r.Body)
			return faas.Response{Status: status, Headers: map[string]string{"Content-Type": ct}, Body: body}
		}, time.Time{})
	}
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	edge := faas.StartEdge(gw)
	defer edge.Close()

	ds := scanC2(context.Background(), Config{ProbeTimeout: 2 * time.Second}, edge, db, nil, hosts)
	// Position of each (fingerprint, port) probe in a host's sweep.
	order := map[string]int{}
	for _, fp := range db.All() {
		for _, port := range fp.Ports {
			order[fmt.Sprintf("%s:%d", fp.ID, port)] = len(order)
		}
	}
	last := map[string]int{}
	for i, d := range ds {
		if i > 0 && ds[i-1].Host > d.Host {
			t.Fatalf("detection %d (%s) follows %s: not sorted by host", i, d.Host, ds[i-1].Host)
		}
		pos := order[fmt.Sprintf("%s:%d", d.Fingerprint, d.Port)]
		if prev, ok := last[d.Host]; ok && prev >= pos {
			t.Errorf("%s: %s:%d out of DB order", d.Host, d.Fingerprint, d.Port)
		}
		last[d.Host] = pos
	}
	if len(last) != len(hosts) {
		t.Fatalf("detected %d of %d relays", len(last), len(hosts))
	}

	oracle := ti.NewOracle()
	seedTI(oracle, ds)
	cov := oracle.Assess(hosts)
	wantSeeded := "relay1 relay2 relay3 relay4"
	var seeded []string
	for _, d := range cov.Domains {
		seeded = append(seeded, strings.SplitN(d, ".", 2)[0])
	}
	slices.Sort(seeded)
	if got := strings.Join(seeded, " "); got != wantSeeded {
		t.Errorf("seedTI seeded %q, want the four smallest hosts %q", got, wantSeeded)
	}
}
