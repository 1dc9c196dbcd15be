package core

import (
	"context"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/c2"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/workload"
)

// scanHostPerPort is the C2 scan as it was before the scanner relied on a
// port-blind transport: one fresh exchange per fingerprint and declared
// port, each detection the answer to its own probe. It keeps the
// scanner's Dial, Timeout and MaxResponse, and is the reference the
// one-exchange-per-fingerprint c2.Scanner is checked against.
func scanHostPerPort(ctx context.Context, s *c2.Scanner, host string) []c2.Detection {
	var out []c2.Detection
	for _, fp := range s.DB.All() {
		probe := fp.ProbeFor(host)
		for _, port := range fp.Ports {
			if ctx.Err() != nil {
				return out
			}
			if exchangeMatches(ctx, s, net.JoinHostPort(host, strconv.Itoa(port)), fp, probe) {
				out = append(out, c2.Detection{Host: host, Port: port, Fingerprint: fp.ID, Family: fp.Family})
			}
		}
	}
	return out
}

// exchangeMatches sends probe to addr over a fresh connection and matches
// the response against fp.
func exchangeMatches(ctx context.Context, s *c2.Scanner, addr string, fp *c2.Fingerprint, probe []byte) bool {
	cctx, cancel := context.WithTimeout(ctx, s.Timeout)
	defer cancel()
	conn, err := s.Dial(cctx, "tcp", addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(s.Timeout))
	if _, err := conn.Write(probe); err != nil {
		return false
	}
	resp, err := io.ReadAll(io.LimitReader(conn, int64(s.MaxResponse)))
	if err != nil && len(resp) == 0 {
		return false
	}
	return fp.Match.Matches(resp)
}

// TestC2SweepMatchesPerPortReference rebuilds the shared run's platform and
// edge from its population, scans every C2 target with the per-port
// reference, and requires the pipeline's detections exactly: same hosts,
// fingerprints, ports and order.
func TestC2SweepMatchesPerPortReference(t *testing.T) {
	r := sharedRun(t)
	db := c2.DefaultDB()
	edge := startEdge(r.Config, r.Population, db, nil)
	defer edge.Close()
	s := c2.NewScanner(db)
	s.Timeout = c2Timeout(r.Config.ProbeTimeout)
	s.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) { return edge.DialPlain(ctx) }

	targets := c2Targets(r.ProbeResults)
	perHost := make([][]c2.Detection, len(targets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, host := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			perHost[i] = scanHostPerPort(context.Background(), s, host)
		}()
	}
	wg.Wait()
	want := slices.Concat(perHost...)
	slices.SortStableFunc(want, func(a, b c2.Detection) int { return strings.Compare(a.Host, b.Host) })
	if len(want) == 0 {
		t.Fatal("the reference detected no relay among the C2 targets")
	}
	if !slices.Equal(r.C2Detections, want) {
		t.Fatalf("pipeline detections differ from the per-port reference over %d targets:\n got  %v\n want %v",
			len(targets), r.C2Detections, want)
	}
}

// TestRelaysMatchRawOracle deploys, for each of the 26 fingerprints, a relay
// of its family as the pipeline does (workload.Deploy), scans every relay
// with scanC2 through the edge, gateway and platform, and requires exactly
// the (fingerprint, port) hits that HandleRaw, which answers the probe's raw
// bytes with no HTTP parser in between, gives to the same probes.
func TestRelaysMatchRawOracle(t *testing.T) {
	db := c2.DefaultDB()
	day := workload.Window().Start
	pop := &workload.Population{}
	var hosts []string
	for _, fp := range db.All() {
		host := "relay-" + fp.ID + ".lambda-url.us-east-1.on.aws"
		hosts = append(hosts, host)
		pop.Functions = append(pop.Functions, &workload.Function{
			FQDN: host, Provider: providers.AWS, Region: "us-east-1",
			Profile: workload.ProfileC2Relay, C2Family: fp.Family,
			ActiveDays: []pdns.Date{day},
		})
	}
	cfg := Config{ProbeTimeout: 2 * time.Second}
	edge := startEdge(cfg, pop, db, nil)
	defer edge.Close()
	got := scanC2(context.Background(), cfg, edge, db, nil, hosts)

	var want []c2.Detection
	for _, f := range pop.Functions {
		for _, fp := range db.All() {
			for _, port := range fp.Ports {
				if fp.Match.Matches(c2.HandleRaw(db, f.C2Family, fp.ProbeFor(f.FQDN))) {
					want = append(want, c2.Detection{Host: f.FQDN, Port: port, Fingerprint: fp.ID, Family: fp.Family})
				}
			}
		}
	}
	slices.SortStableFunc(want, func(a, b c2.Detection) int { return strings.Compare(a.Host, b.Host) })
	if !slices.Equal(got, want) {
		for _, d := range want {
			if !slices.Contains(got, d) {
				t.Errorf("missed through the edge: %s %s:%d", d.Host, d.Fingerprint, d.Port)
			}
		}
		for _, d := range got {
			if !slices.Contains(want, d) {
				t.Errorf("not answered by the raw oracle: %s %s:%d", d.Host, d.Fingerprint, d.Port)
			}
		}
		t.Fatalf("edge detections (%d) differ from the raw oracle's (%d)", len(got), len(want))
	}
}
