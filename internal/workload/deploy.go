package workload

import (
	"math/rand"
	"time"

	"repro/internal/c2"
	"repro/internal/faas"
	"repro/internal/lazyrand"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// Deploy registers every function of the population on the platform with a
// handler realising its profile, so the active prober and the C2 scanner
// observe exactly the paper's response mixes over real HTTP. Deleted
// functions are deployed and then deleted, so the gateway serves the
// provider-correct deleted-function response (404/403) while Tencent's
// resolver-side NXDOMAIN comes from MarkDeleted.
func Deploy(pop *Population, platform *faas.Platform, db *c2.DB) {
	for _, f := range pop.Functions {
		deployOne(pop, f, platform, db)
	}
}

func deployOne(pop *Population, f *Function, platform *faas.Platform, db *c2.DB) {
	createdAt := f.FirstDay().Time()
	cfg := faas.Config{}
	switch f.Profile {
	case ProfileAuth:
		cfg.Access = faas.IAMAuth
	case ProfileInternal:
		cfg.Access = faas.InternalOnly
	}
	h := handlerFor(f, db)
	platform.Deploy(f.FQDN, f.Provider, f.Region, cfg, h, createdAt)
	if f.Profile == ProfileDeleted {
		platform.Delete(f.FQDN, f.LastDay().AddDays(1).Time())
	}
}

// handlerFor builds the function's handler. Bodies are generated once,
// deterministically from the function's BodySeed, so repeated probes see
// stable content.
func handlerFor(f *Function, db *c2.DB) faas.Handler {
	rng := rand.New(lazyrand.New(f.BodySeed))
	secret := plantSecret(f.SecretKind, rng)

	// The body is converted once per function; every invocation shares the
	// slice, which nothing downstream writes to.
	respond := func(status int, ct, body string) faas.Handler {
		b := []byte(body)
		return func(ctx *faas.InvokeContext) faas.Response {
			return faas.Response{
				Status:  status,
				Headers: map[string]string{"Content-Type": ct},
				Body:    b,
			}
		}
	}

	switch f.Profile {
	case ProfileJSON:
		ct, body := jsonBody(rng, secret)
		return respond(200, ct, body)
	case ProfileHTML:
		ct, body := htmlBody(rng, secret)
		return respond(200, ct, body)
	case ProfileText:
		ct, body := textBody(rng, secret)
		return respond(200, ct, body)
	case ProfileOther:
		ct, body := otherBody(rng, secret)
		return respond(200, ct, body)
	case ProfileEmpty200:
		return respond(200, "text/plain", "")
	case ProfileServerErr:
		// A third of server errors come from genuine unhandled exceptions
		// (panics the platform converts to 502); the rest from failed
		// dependencies answered as 502/500/503.
		if rng.Intn(3) == 0 {
			return func(ctx *faas.InvokeContext) faas.Response {
				panic("unhandled exception in function code")
			}
		}
		status := []int{502, 502, 500, 503}[rng.Intn(4)]
		return respond(status, "text/html", "<html><body>upstream dependency failed</body></html>")
	case ProfileAuth:
		// The platform's IAM layer answers 401 before the handler runs.
		return respond(200, "text/plain", "authenticated admin endpoint")
	case ProfileForbidden:
		return respond(403, "application/json", `{"message":"Missing Authentication Token"}`)
	case ProfileOtherCode:
		status := []int{405, 429, 400}[rng.Intn(3)]
		return respond(status, "text/plain", "request rejected")
	case ProfileInternal, ProfileDeleted:
		// Never observable externally; body immaterial.
		return respond(200, "text/plain", "internal")

	case ProfileC2Relay:
		family := f.C2Family
		return func(ctx *faas.InvokeContext) faas.Response {
			path := ctx.Request.Path
			if ctx.Request.Query != "" {
				path += "?" + ctx.Request.Query
			}
			status, ct, body, _ := c2.BannerResponse(db, family, ctx.Request.Method, path, ctx.Request.Headers, ctx.Request.Body)
			return faas.Response{
				Status:  status,
				Headers: map[string]string{"Content-Type": ct},
				Body:    body,
			}
		}
	case ProfileGambling:
		ct, body := gamblingBody(rng, f.Campaign)
		return respond(200, ct, body)
	case ProfilePorn:
		ct, body := pornBody(rng)
		return respond(200, ct, body)
	case ProfileCheat:
		ct, body := cheatBody(rng)
		return respond(200, ct, body)
	case ProfileRedirectStatic:
		// Half answer with an HTTP 302, half with an in-body script.
		if rng.Intn(2) == 0 {
			target := "http://" + randToken(rng, 6) + ".concealed-svc.top/enter"
			return func(ctx *faas.InvokeContext) faas.Response {
				return faas.Response{
					Status: 302,
					Headers: map[string]string{
						"Content-Type": "text/html",
						"Location":     target,
					},
					Body: []byte("redirecting"),
				}
			}
		}
		ct, body := redirectStaticBody(rng)
		return respond(200, ct, body)
	case ProfileRedirectDynamic:
		ct, body := redirectDynamicBody(rng)
		return respond(200, ct, body)
	case ProfileResale:
		ct, body := resaleBody(rng, f.Contact, f.AccountSale)
		return respond(200, ct, body)
	case ProfileIllegalProxy:
		ct, body := illegalProxyBody(rng)
		return respond(200, ct, body)
	case ProfileGeoProxy:
		ct, body := geoProxyBody(rng, f.GeoKind)
		return respond(200, ct, body)
	default: // ProfileNotFound
		return respond(404, "text/plain", "Not Found")
	}
}

// ProbeTargets returns the FQDNs of functions on actively probeable
// providers (paper §3.3), sorted (the population is already FQDN-sorted).
func (p *Population) ProbeTargets() []string {
	var out []string
	for _, f := range p.Functions {
		if providers.Get(f.Provider).ActiveProbe {
			out = append(out, f.FQDN)
		}
	}
	return out
}

// CountByProfile tallies the population per profile.
func (p *Population) CountByProfile() map[Profile]int {
	out := make(map[Profile]int)
	for _, f := range p.Functions {
		out[f.Profile]++
	}
	return out
}

// AbusedFQDNs returns the FQDNs of Table 3 cohort functions.
func (p *Population) AbusedFQDNs() []string {
	var out []string
	for _, f := range p.Functions {
		if f.Profile.Abusive() {
			out = append(out, f.FQDN)
		}
	}
	return out
}

// RequestsByFQDN returns each function's total PDNS request count.
func (p *Population) RequestsByFQDN() map[string]int64 {
	out := make(map[string]int64, len(p.Functions))
	for _, f := range p.Functions {
		out[f.FQDN] = f.Total
	}
	return out
}

// ProviderTotals sums generated requests per provider, for calibration
// checks against Table 2.
func (p *Population) ProviderTotals() map[providers.ID]int64 {
	out := make(map[providers.ID]int64)
	for _, f := range p.Functions {
		out[f.Provider] += f.Total
	}
	return out
}

// DeployWindowClock returns a clock pinned just after the measurement
// window, the instant at which active probing happens.
func DeployWindowClock() func() time.Time {
	t := Window().End.AddDays(1).Time().Add(12 * time.Hour)
	return func() time.Time { return t }
}

// EndOfWindow returns the last day of the measurement window.
func EndOfWindow() pdns.Date { return Window().End }
