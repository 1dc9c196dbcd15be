// C2 scan: demonstrate the fingerprint-based detection of covert C2 relays
// (paper §5.1) against simulated cloud functions. Two functions are deployed
// on the FaaS platform and served over its in-memory edge — one relaying a
// Cobalt Strike-like C2, one a plain 404 — and the scanner probes both with
// all 26 family signatures, through the same gateway the pipeline's sweep
// uses.
package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/c2"
	"repro/internal/faas"
	"repro/internal/providers"
)

const (
	relayHost  = "1234567890-h3xkf92a1b-ap-guangzhou.scf.tencentcs.com"
	benignHost = "api-demo-x7gk29slq1-uc.a.run.app"
)

func main() {
	db := c2.DefaultDB()
	fmt.Printf("fingerprint corpus: %d signatures across %d families\n\n", db.Len(), db.Families())

	platform := faas.NewPlatform()
	// A cloud function hiding a C2 server (Algorithm 1 in the paper): it
	// answers its family's beacon protocol and 404s everything else.
	platform.Deploy(relayHost, providers.Tencent, "ap-guangzhou", faas.Config{}, func(ctx *faas.InvokeContext) faas.Response {
		r := ctx.Request
		path := r.Path
		if r.Query != "" {
			path += "?" + r.Query
		}
		status, ct, body, _ := c2.BannerResponse(db, c2.FamilyCobaltStrike, r.Method, path, r.Headers, r.Body)
		return faas.Response{Status: status, Headers: map[string]string{"Content-Type": ct}, Body: body}
	}, time.Time{})
	// A benign function for contrast.
	platform.Deploy(benignHost, providers.Google, "us-central1", faas.Config{}, func(*faas.InvokeContext) faas.Response {
		return faas.Response{Status: 404, Headers: map[string]string{"Content-Type": "text/plain"}, Body: []byte("Not Found")}
	}, time.Time{})
	edge := faas.StartEdge(faas.NewGateway(platform))
	defer edge.Close()

	scanner := c2.NewScanner(db)
	scanner.Timeout = 2 * time.Second
	// The edge is port-blind: ports 80 and 443 reach the same plain-HTTP
	// listener, so each signature costs one exchange per host.
	scanner.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) { return edge.DialPlain(ctx) }

	for _, h := range []struct{ label, host string }{
		{"suspected relay", relayHost},
		{"benign function", benignHost},
	} {
		ds := scanner.ScanHost(context.Background(), h.host)
		fmt.Printf("%s (%s):\n", h.label, h.host)
		if len(ds) == 0 {
			fmt.Println("  no C2 fingerprints matched")
		}
		for _, d := range ds {
			fmt.Printf("  MATCH family=%s fingerprint=%s port=%d\n", d.Family, d.Fingerprint, d.Port)
		}
		fmt.Println()
	}

	fmt.Println("The relay only reveals itself to family-specific probes; a plain GET")
	fmt.Println("sees a 404, which is why content review alone misses C2 abuse.")
}
