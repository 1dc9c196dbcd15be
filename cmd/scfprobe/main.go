// Command scfprobe runs the ethical active prober over a list of function
// domains (one FQDN per line on stdin or in a file) and prints one
// tab-separated result row per domain: fqdn, reachable, scheme, status,
// content-type, location, body-bytes, failure.
//
// Pointed at real endpoints it behaves per the paper's Appendix A: a single
// parameter-free GET per scheme, HTTPS first, an identifying User-Agent,
// redirects recorded but not followed, and a 60-second timeout.
//
// Usage:
//
//	scfprobe -f domains.txt
//	pdnsgen -scale 0.001 | cut -f1 | sort -u | scfprobe
//	scfprobe -f domains.txt -retries 2 -breaker 20   # resilient campaign
//	scfprobe -f domains.txt -chaos heavy,seed=3      # rehearse a bad day
//	scfprobe -f domains.txt -events run.jsonl
//
// -retries adds bounded exponential-backoff retries after connection-class
// failures, and -breaker opens a per-provider circuit after that many
// consecutive endpoint failures, so one cloud's outage cannot consume the
// whole campaign's politeness budget. -chaos injects a deterministic fault
// schedule in front of the real network — a dress rehearsal for the
// resilience controls without needing the network to misbehave.
//
// -events writes the campaign's provenance record as JSONL, in the event
// format a pipeline run archives under .runs/: the campaign span (with its
// targets, timeout and chaos attributes, wall and CPU time) and the final
// metric snapshot.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/providers"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scfprobe: ")
	var (
		file        = flag.String("f", "-", "file with one FQDN per line (- for stdin)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		concurrency = flag.Int("c", 16, "concurrent probes")
		verifyOnly  = flag.Bool("identify-only", false, "only classify domains against provider patterns; no network contact")
		optOutFile  = flag.String("opt-out", "", "file of FQDNs that must never be contacted")
		retries     = flag.Int("retries", 0, "extra attempts per scheme after connection-class failures")
		breakerThr  = flag.Int("breaker", 0, "consecutive failures opening a provider's circuit (0 = no breaker)")
		chaos       = flag.String("chaos", "", "inject a deterministic fault schedule: none, light, or heavy, optionally ,seed=N")
		eventsFile  = flag.String("events", "", "write the campaign's structured event log to this JSONL file")
	)
	flag.Parse()

	var chaosProf fault.Profile
	if *chaos != "" {
		var err error
		if chaosProf, err = fault.ParseProfile(*chaos); err != nil {
			log.Fatal(err)
		}
	}

	fqdns, err := readLines(*file)
	if err != nil {
		log.Fatal(err)
	}
	matcher := providers.NewMatcher(nil)

	if *verifyOnly {
		for _, fqdn := range fqdns {
			if in, ok := matcher.Identify(fqdn); ok {
				fmt.Printf("%s\t%s\n", fqdn, in.Name)
			} else {
				fmt.Printf("%s\t-\n", fqdn)
			}
		}
		return
	}

	// Campaign observability: one span covers the whole sweep, and the
	// prober reports latency/outcome metrics into the registry, so a
	// campaign leaves the same provenance trail a pipeline run does.
	reg := obs.NewRegistry()
	elog := obs.NewEventLog()
	ctx := obs.ContextWithEventLog(context.Background(), elog)

	cfg := probe.Config{
		Timeout:     *timeout,
		Concurrency: *concurrency,
		Retries:     *retries,
		Metrics:     reg,
		// Label the outcome/latency vectors per provider, so the campaign's
		// metric snapshot answers "whose endpoints failed" directly.
		Provider: func(fqdn string) string {
			if in, ok := matcher.Identify(fqdn); ok {
				return in.Name
			}
			return "unknown"
		},
	}
	if *breakerThr > 0 {
		cfg.Breaker = fault.NewBreaker(*breakerThr, 0)
		cfg.BreakerKey = func(fqdn string) string {
			if in, ok := matcher.Identify(fqdn); ok {
				return in.Name
			}
			return fqdn
		}
	}
	if chaosProf.Enabled() {
		injector := fault.New(chaosProf)
		injector.SetSpikeDelay(3 * *timeout)
		cfg.Resolve = injector.WrapResolve(nil)
		var d net.Dialer
		cfg.DialContext = injector.WrapDial(d.DialContext)
		// The injector only wraps the real dialer; certificates must still
		// verify like any production campaign.
		cfg.KeepTLSVerify = true
	}
	p := probe.New(cfg)
	if *optOutFile != "" {
		outs, err := readLines(*optOutFile)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range outs {
			p.OptOut(o)
		}
	}

	// Keep the contact to function domains only.
	var targets []string
	for _, fqdn := range fqdns {
		if _, ok := matcher.Identify(fqdn); ok {
			targets = append(targets, fqdn)
		} else {
			fmt.Fprintf(os.Stderr, "scfprobe: skipping %s (not a known function domain)\n", fqdn)
		}
	}
	sctx, sp := obs.StartSpan(ctx, "campaign")
	results := p.ProbeAll(sctx, targets)
	sp.SetAttr("targets", len(targets))
	sp.SetAttr("timeout", *timeout)
	sp.SetAttr("chaos", chaosProf)
	sp.End()
	for i := range results {
		r := &results[i]
		scheme := "http"
		if r.HTTPS {
			scheme = "https"
		}
		if !r.Reachable {
			scheme = "-"
		}
		fmt.Printf("%s\t%v\t%s\t%d\t%s\t%s\t%d\t%s\n",
			r.FQDN, r.Reachable, scheme, r.Status,
			sanitizeField(r.ContentType), sanitizeField(r.Location),
			len(r.Body), r.Failure)
	}
	st := p.Stats()
	fmt.Fprintf(os.Stderr, "scfprobe: probed %d, reachable %d, unreachable %d (dns %d)\n",
		st.Probed, st.Reachable, st.Unreachable, st.DNSFailures)
	if st.Retried > 0 || st.BreakerSkips > 0 {
		fmt.Fprintf(os.Stderr, "scfprobe: degraded: %d conn retries, %d breaker skips\n",
			st.Retried, st.BreakerSkips)
	}
	elog.EmitMetrics("final", reg)
	if *eventsFile != "" {
		f, err := os.Create(*eventsFile)
		if err != nil {
			log.Fatal(err)
		}
		werr := elog.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
	}
}

func readLines(path string) ([]string, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}

func sanitizeField(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	s = strings.ReplaceAll(s, "\n", " ")
	if s == "" {
		return "-"
	}
	return s
}
