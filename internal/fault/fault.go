// Package fault is the pipeline's deterministic chaos layer. The paper's
// measurement ran for two years against adversarial inputs: a 600 B-queries/
// day PDNS feed containing malformed records and nine clouds whose endpoints
// time out, reset, flap, and return garbage (§3.3 classifies whole failure
// families: dns, timeout, conn). The synthetic substrates of this
// reproduction only ever emit the happy path, so this package injects the
// unhappy one — on demand, and reproducibly.
//
// Every fault decision is a pure function of (profile seed, FQDN): the
// per-FQDN fault plan derives from pdns.HashFQDN(fqdn) xor the seed through
// a splitmix64 stream. That is the keying of the parallel substrate's
// per-function streams (workload.functionSeed), but the generator is this
// package's own splitmix64, not the substrate's math/rand-compatible
// source (package lazyrand). Two runs with the same chaos seed therefore inject
// the identical fault schedule at any worker count or probe concurrency, so
// resilience regressions are bisectable and degradation counts are
// comparable across runs.
//
// Fault classes:
//   - DNS lookup failure (resolution errors before any contact)
//   - connection reset (endpoint dead for the whole campaign)
//   - endpoint flap (first 1–2 dials reset, then the endpoint recovers —
//     only retries or the HTTP fallback reach it)
//   - response truncation (the connection dies after a byte budget, killing
//     TLS handshakes and truncating plain-HTTP bodies)
//   - latency spike (the dial stalls past any probe timeout)
//   - PDNS feed corruption (records mangled so they fail validation — see
//     corrupt.go)
package fault

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pdns"
)

// Profile parameterises one chaos campaign: the per-FQDN probability of each
// fault class plus the seed the schedule derives from. A profile with no
// name and no rates leaves its fault half unset (OrEnv fills it from the
// SCF_CHAOS environment variable); the named "none" profile disables
// injection explicitly.
type Profile struct {
	Name string
	// Seed keys every fault schedule; 0 lets the caller substitute the
	// run's substrate seed (see WithSeed).
	Seed int64

	DNSFail     float64 // resolution fails for the FQDN
	Reset       float64 // every dial to the FQDN is reset
	Flap        float64 // first 1-2 dials reset, then the endpoint recovers
	Truncate    float64 // connections die after a 256-639 byte budget
	Latency     float64 // dials stall past the probe timeout
	FeedCorrupt float64 // PDNS records are mangled (fail validation)

	// Crash schedule (see crash.go). CrashStage aborts the process at that
	// stage's entry boundary. CrashAuto > 0 picks the boundary
	// pseudo-randomly from the seed instead (the k-th drawing of the seeded
	// crashpoint stream). Crash fields are deliberately absent
	// from both Enabled and String: a crash does not alter any fault
	// schedule, and the crashing and resuming invocations of a run must
	// share a run ID, which hashes Profile.String().
	CrashStage string
	CrashAuto  int
}

// None returns the explicit no-chaos profile.
func None() Profile { return Profile{Name: "none"} }

// Light returns a low-rate profile: around one fault per hundred endpoints,
// enough to exercise every resilience path without moving headline numbers.
func Light() Profile {
	return Profile{
		Name:    "light",
		DNSFail: 0.002, Reset: 0.004, Flap: 0.01,
		Truncate: 0.006, Latency: 0.001, FeedCorrupt: 0.002,
	}
}

// Heavy returns a high-rate profile modelled on a bad week in the paper's
// campaign: several percent of endpoints faulty and two percent of the feed
// corrupted. The pipeline must complete and record the degradation.
func Heavy() Profile {
	return Profile{
		Name:    "heavy",
		DNSFail: 0.01, Reset: 0.02, Flap: 0.05,
		Truncate: 0.03, Latency: 0.005, FeedCorrupt: 0.02,
	}
}

// OrEnv fills an unset fault half from SCF_CHAOS. A profile with no name
// and no rates — the zero profile, or what a leading "crash=" or "seed="
// spec parses to — takes the environment's fault classes and keeps its own
// crash schedule and pinned seed, so a crashing run and its resume land in
// the same run slot under an ambient SCF_CHAOS. Any other profile, None
// included, is returned as is.
func (p Profile) OrEnv() (Profile, error) {
	if p.Name != "" || p.Enabled() {
		return p, nil
	}
	env, err := FromEnv()
	if err != nil {
		return Profile{}, err
	}
	if p.Seed != 0 {
		env.Seed = p.Seed
	}
	if p.CrashSpec() != "" {
		env.CrashStage, env.CrashAuto = p.CrashStage, p.CrashAuto
	}
	return env, nil
}

// Enabled reports whether any fault class has a non-zero rate.
func (p Profile) Enabled() bool {
	return p.DNSFail > 0 || p.Reset > 0 || p.Flap > 0 ||
		p.Truncate > 0 || p.Latency > 0 || p.FeedCorrupt > 0
}

// WithSeed fills in the seed if the profile doesn't pin one, so `-chaos
// heavy` inherits the run's substrate seed while `-chaos heavy,seed=7`
// stays pinned.
func (p Profile) WithSeed(seed int64) Profile {
	if p.Seed == 0 {
		p.Seed = seed
	}
	return p
}

// String renders the profile as a spec ParseProfile accepts. A disabled
// profile is just its name: a seed only means something when faults draw
// from it.
func (p Profile) String() string {
	name := p.Name
	if name == "" {
		name = "none"
	}
	if p.Seed != 0 && p.Enabled() {
		return fmt.Sprintf("%s,seed=%d", name, p.Seed)
	}
	return name
}

// ParseProfile parses a chaos spec: "none", "light", or "heavy", optionally
// followed by ",seed=N" to pin the schedule seed and/or ",crash=<spec>" to
// schedule a deterministic process abort. Crash specs: "crash=<stage>" kills
// at the stage's entry boundary, "crash=auto:<k>" derives the boundary from
// the seed (the k-th draw of the crashpoint stream). Stage names are checked
// against the pipeline's stages when it installs them (Injector.Crashpoints).
func ParseProfile(spec string) (Profile, error) {
	parts := strings.Split(spec, ",")
	var p Profile
	opts := parts[1:]
	switch first := strings.TrimSpace(parts[0]); first {
	case "", "none":
		p = None()
	case "light":
		p = Light()
	case "heavy":
		p = Heavy()
	default:
		// A leading k=v option ("crash=probe", "seed=7") leaves the fault
		// half unset: crash injection does not force fault injection along
		// with it, and OrEnv fills it from SCF_CHAOS like an empty spec.
		if strings.Contains(first, "=") {
			opts = parts
			break
		}
		return Profile{}, fmt.Errorf("fault: unknown chaos profile %q (want none, light, or heavy)", parts[0])
	}
	for _, opt := range opts {
		k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok {
			return Profile{}, fmt.Errorf("fault: bad chaos option %q (want seed=N or crash=<spec>)", opt)
		}
		switch k {
		case "seed":
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("fault: bad chaos seed %q: %w", v, err)
			}
			p.Seed = seed
		case "crash":
			if err := parseCrashSpec(&p, v); err != nil {
				return Profile{}, err
			}
		default:
			return Profile{}, fmt.Errorf("fault: bad chaos option %q (want seed=N or crash=<spec>)", opt)
		}
	}
	return p, nil
}

// EnvVar is the environment variable the chaos gate reads; `make chaos`
// exports it so the whole tier-1 suite runs under heavy injection.
const EnvVar = "SCF_CHAOS"

// envLookup is swapped in tests.
var envLookup = os.LookupEnv

// FromEnv resolves the chaos profile from SCF_CHAOS; an unset or empty
// variable selects None.
func FromEnv() (Profile, error) {
	spec, ok := envLookup(EnvVar)
	if !ok || strings.TrimSpace(spec) == "" {
		return None(), nil
	}
	p, err := ParseProfile(spec)
	if err != nil {
		return Profile{}, fmt.Errorf("%s: %w", EnvVar, err)
	}
	return p, nil
}

// Plan is one FQDN's deterministic fault schedule under a profile: which
// fault classes hit it, and with what parameters. Computing a Plan has no
// side effects, so schedules can be audited without running anything.
type Plan struct {
	FQDN    string
	DNSFail bool
	Reset   bool
	// FlapN is how many initial dials reset before the endpoint recovers;
	// 0 means the endpoint never flaps.
	FlapN int
	// Truncate kills the connection after TruncateAfter bytes read. The
	// budget is kept in [256, 640): large enough that plain-HTTP response
	// headers arrive, small enough that a TLS handshake never completes.
	// WrapDial therefore fails a truncated port-443 dial outright, whether
	// or not the conn would run a handshake: the outcome is deterministic,
	// not a race with handshake size.
	Truncate      bool
	TruncateAfter int
	Latency       bool
}

// Faulty reports whether any fault applies to the FQDN.
func (p Plan) Faulty() bool {
	return p.DNSFail || p.Reset || p.FlapN > 0 || p.Truncate || p.Latency
}

// Injected fault errors. Their text matters: the prober's failure
// classifier files them under the paper's dns/conn failure classes.
var (
	// ErrInjectedDNS reads like a resolver miss so probe.classifyError
	// marks the result FailDNS.
	ErrInjectedDNS = errors.New("fault: injected dns failure: no such host")
	// ErrInjectedReset classifies as a connection failure (retryable).
	ErrInjectedReset = errors.New("fault: injected connection reset")
)

// DialFunc matches net.Dialer.DialContext and probe.Config.DialContext.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// Injector evaluates a profile's fault schedules and applies them to the
// paths it wraps. It is safe for concurrent use: plans are pure functions,
// the per-FQDN dial counters are atomics in a sync.Map, and the telemetry
// counters are obs atomics. A nil *Injector is a valid no-op: every Wrap
// method returns its argument unchanged.
type Injector struct {
	prof  Profile
	spike time.Duration

	dials sync.Map // fqdn → *atomic.Int64, dials attempted so far

	// stages are the boundaries a crash may target (see Crashpoints);
	// crashFired latches the scheduled process abort so it can never fire
	// twice.
	stages     []string
	crashFired atomic.Bool

	// Telemetry; populated by Instrument, no-ops otherwise.
	mDNS     *obs.Counter // fault_dns_injected_total
	mReset   *obs.Counter // fault_resets_injected_total
	mFlap    *obs.Counter // fault_flaps_injected_total
	mTrunc   *obs.Counter // fault_truncations_injected_total
	mLatency *obs.Counter // fault_latency_injected_total
	mCorrupt *obs.Counter // fault_corrupt_records_total
}

// New builds an injector for the profile. A disabled profile still yields a
// usable injector whose wrappers pass everything through.
func New(p Profile) *Injector {
	return &Injector{prof: p, spike: 30 * time.Second}
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile {
	if in == nil {
		return None()
	}
	return in.prof
}

// SetSpikeDelay bounds how long a latency-spiked dial stalls when the
// caller's context has no deadline; callers should set it beyond their probe
// timeout so spikes classify as timeouts.
func (in *Injector) SetSpikeDelay(d time.Duration) {
	if in != nil && d > 0 {
		in.spike = d
	}
}

// Instrument points the injector's telemetry at reg. Call before injecting;
// a nil registry leaves the injector un-instrumented.
func (in *Injector) Instrument(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.mDNS = reg.Counter("fault_dns_injected_total")
	in.mReset = reg.Counter("fault_resets_injected_total")
	in.mFlap = reg.Counter("fault_flaps_injected_total")
	in.mTrunc = reg.Counter("fault_truncations_injected_total")
	in.mLatency = reg.Counter("fault_latency_injected_total")
	in.mCorrupt = reg.Counter("fault_corrupt_records_total")
}

// PlanFor derives the FQDN's fault schedule: a pure function of
// (profile seed, FQDN), identical at any worker count.
func (in *Injector) PlanFor(fqdn string) Plan {
	if in == nil || !in.prof.Enabled() {
		return Plan{FQDN: fqdn}
	}
	s := newStream(uint64(in.prof.Seed), pdns.HashFQDN(fqdn), streamEndpoint)
	p := Plan{FQDN: fqdn}
	// One draw per fault class, in fixed order, so adding a class never
	// perturbs the draws of the ones before it.
	p.DNSFail = s.hit(in.prof.DNSFail)
	p.Reset = s.hit(in.prof.Reset)
	if s.hit(in.prof.Flap) {
		p.FlapN = 1 + int(s.next()%2) // 1 or 2 failing dials
	}
	p.Truncate = s.hit(in.prof.Truncate)
	p.TruncateAfter = 256 + int(s.next()%384) // [256, 640)
	p.Latency = s.hit(in.prof.Latency)
	// DNS failure preempts everything else: the endpoint is never dialed.
	if p.DNSFail {
		p.Reset, p.FlapN, p.Truncate, p.Latency = false, 0, false, false
	}
	return p
}

// WrapResolve wraps a prober's DNS pre-check with injected resolution
// failures. A nil next skips the underlying check (mirroring
// probe.Config.Resolve semantics).
func (in *Injector) WrapResolve(next func(fqdn string) error) func(fqdn string) error {
	if in == nil || !in.prof.Enabled() {
		return next
	}
	return func(fqdn string) error {
		if in.PlanFor(fqdn).DNSFail {
			in.mDNS.Inc()
			return ErrInjectedDNS
		}
		if next != nil {
			return next(fqdn)
		}
		return nil
	}
}

// WrapDial wraps a dialer with the connection-level fault classes: latency
// spikes, flapping, resets, and truncation. The FQDN is recovered from the
// dial address, so the same wrapper serves the simulated gateway and a real
// net.Dialer alike. A truncated dial to port 443 fails with
// ErrInjectedReset once the underlying dial succeeds: the budget never
// covers a TLS handshake, and a dialer that hands net/http an
// already-secured conn runs none, so cutting the byte stream would
// otherwise let the HTTPS attempt through with a partial body.
func (in *Injector) WrapDial(next DialFunc) DialFunc {
	if in == nil || !in.prof.Enabled() {
		return next
	}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			host = addr
		}
		plan := in.PlanFor(host)
		if !plan.Faulty() {
			return next(ctx, network, addr)
		}
		n := in.countDial(host)
		switch {
		case plan.Latency:
			// Stall past any sane probe timeout; the caller's context
			// deadline fires first and classifies as a timeout.
			in.mLatency.Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(in.spike):
				return nil, ErrInjectedReset
			}
		case plan.FlapN > 0 && n <= int64(plan.FlapN):
			in.mFlap.Inc()
			return nil, ErrInjectedReset
		case plan.Reset:
			in.mReset.Inc()
			return nil, ErrInjectedReset
		}
		c, err := next(ctx, network, addr)
		if err != nil || !plan.Truncate {
			return c, err
		}
		in.mTrunc.Inc()
		if port == "443" {
			c.Close()
			return nil, ErrInjectedReset
		}
		return &truncConn{Conn: c, remaining: plan.TruncateAfter}, nil
	}
}

// countDial increments and returns the FQDN's dial counter. Within one
// probe, attempts are serial, so flap recovery is deterministic per FQDN.
func (in *Injector) countDial(fqdn string) int64 {
	v, ok := in.dials.Load(fqdn)
	if !ok {
		v, _ = in.dials.LoadOrStore(fqdn, new(atomic.Int64))
	}
	return v.(*atomic.Int64).Add(1)
}

// truncConn kills the connection after a byte budget of reads, as a
// mid-response peer crash would.
type truncConn struct {
	net.Conn
	remaining int
}

func (c *truncConn) Read(b []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if len(b) > c.remaining {
		b = b[:c.remaining]
	}
	n, err := c.Conn.Read(b)
	c.remaining -= n
	return n, err
}

// Stream-domain constants keep the endpoint, feed-record, and crash
// schedules independent even for the same FQDN and seed.
const (
	streamEndpoint uint64 = 0x0e9d0f17a11ed001
	streamRecord   uint64 = 0x5eedc0440badf00d
	streamCrash    uint64 = 0xc4a54bad5eedd1e5
)

// stream is a splitmix64 generator over a fault domain.
type stream struct{ x uint64 }

func newStream(seed, fqdnHash, domain uint64) *stream {
	return &stream{x: mix64(seed ^ fqdnHash ^ domain)}
}

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	return mix64(s.x)
}

// hit draws one uniform [0,1) variate and compares against rate.
func (s *stream) hit(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(s.next()>>11)/(1<<53) < rate
}

// mix64 is the splitmix64 finalizer, the same full-avalanche bijection the
// workload's per-function RNG streams use.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
