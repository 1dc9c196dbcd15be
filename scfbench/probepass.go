package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"log"
	"math/big"
	mrand "math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/workload"
)

// probePass sweeps every probe target again with a prober configured like
// the probe stage's, against an edge built like the pipeline's — the faas
// gateway behind one plain and one TLS listener on loopback — and times
// each Probe call from outside. The pipeline's own per-target timings are
// not usable: probe.Prober.Probe sets Result.Elapsed in a deferred call
// after `return res` has already copied the result, so it always reads 0.
func probePass(ctx context.Context, cfg core.Config, pop *workload.Population, platform *faas.Platform, targets []string) ([]probe.Result, []time.Duration, time.Duration, error) {
	gw := faas.NewGateway(platform)
	gw.Instrument(obs.NewRegistry())
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	e, err := startEdge(gw)
	if err != nil {
		return nil, nil, 0, err
	}
	defer e.close()

	resolver := dnssim.NewResolver()
	workload.MarkDeleted(pop, resolver)
	httpOnly := map[string]bool{}
	for _, f := range pop.Functions {
		if f.HTTPOnly {
			httpOnly[f.FQDN] = true
		}
	}
	matcher := providers.NewMatcher(nil)
	prober := probe.New(probe.Config{
		Timeout:      cfg.ProbeTimeout,
		Concurrency:  cfg.ProbeConcurrency,
		Retries:      cfg.ProbeRetries,
		RetryBackoff: cfg.ProbeRetryBackoff,
		Provider: func(fqdn string) string {
			if info, ok := matcher.Identify(fqdn); ok {
				return info.Name
			}
			return "unknown"
		},
		Metrics: obs.NewRegistry(),
		Resolve: func(fqdn string) error {
			_, err := resolver.Resolve(fqdn, mrand.New(mrand.NewSource(int64(pdns.HashFQDN(fqdn)))))
			return err
		},
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, port, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			var d net.Dialer
			if port != "443" {
				return d.DialContext(ctx, network, e.plainAddr)
			}
			if httpOnly[strings.ToLower(host)] {
				return nil, fmt.Errorf("connection refused (no TLS listener for %s)", host)
			}
			return d.DialContext(ctx, network, e.tlsAddr)
		},
	})

	results := make([]probe.Result, len(targets))
	elapsed := make([]time.Duration, len(targets))
	sem := make(chan struct{}, cfg.ProbeConcurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i, fqdn := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, fqdn string) {
			defer wg.Done()
			defer func() { <-sem }()
			t := time.Now()
			results[i] = prober.Probe(ctx, fqdn)
			elapsed[i] = time.Since(t)
		}(i, fqdn)
	}
	wg.Wait()
	return results, elapsed, time.Since(start), nil
}

// edge serves one handler on a plain and a TLS loopback listener.
type edge struct {
	plainAddr, tlsAddr string
	srv                *http.Server
	wg                 sync.WaitGroup
}

func startEdge(h http.Handler) (*edge, error) {
	cert, err := edgeCert()
	if err != nil {
		return nil, err
	}
	plain, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		plain.Close()
		return nil, fmt.Errorf("edge: %w", err)
	}
	e := &edge{
		plainAddr: plain.Addr().String(),
		tlsAddr:   raw.Addr().String(),
		srv:       &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
	}
	tlsLn := tls.NewListener(raw, &tls.Config{Certificates: []tls.Certificate{cert}})
	e.wg.Add(2)
	go func() { defer e.wg.Done(); e.srv.Serve(plain) }()
	go func() { defer e.wg.Done(); e.srv.Serve(tlsLn) }()
	return e, nil
}

// close stops both listeners, drops open connections (stalled handlers see
// their request context end) and waits for the serve loops to return.
func (e *edge) close() {
	e.srv.Close()
	e.wg.Wait()
}

// edgeCert mints the same kind of certificate as the pipeline's edge: an
// ephemeral self-signed ECDSA P-256 key, so TLS handshakes cost the same.
func edgeCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("edge: key: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "simulated-cloud-edge"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"*"},
		IsCA:         true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("edge: cert: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
