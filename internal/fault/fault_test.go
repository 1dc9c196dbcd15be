package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseProfile(t *testing.T) {
	cases := []struct {
		spec string
		want string
		err  bool
	}{
		{"none", "none", false},
		{"", "none", false},
		{"light", "light", false},
		{"heavy", "heavy", false},
		{"heavy,seed=7", "heavy,seed=7", false},
		{"light, seed=-3", "light,seed=-3", false},
		{"medium", "", true},
		{"heavy,seed=x", "", true},
		{"heavy,cooldown=3", "", true},
	}
	for _, c := range cases {
		p, err := ParseProfile(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseProfile(%q) succeeded, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", c.spec, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParseProfile(%q).String() = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestFromEnv(t *testing.T) {
	orig := envLookup
	defer func() { envLookup = orig }()

	envLookup = func(string) (string, bool) { return "", false }
	if p, err := FromEnv(); err != nil || p.Enabled() {
		t.Errorf("unset env → (%v, %v), want disabled none", p, err)
	}
	envLookup = func(string) (string, bool) { return "heavy,seed=5", true }
	p, err := FromEnv()
	if err != nil || p.Name != "heavy" || p.Seed != 5 {
		t.Errorf("heavy env → (%v, %v)", p, err)
	}
	envLookup = func(string) (string, bool) { return "bogus", true }
	if _, err := FromEnv(); err == nil || !strings.Contains(err.Error(), EnvVar) {
		t.Errorf("bogus env error = %v, want mention of %s", err, EnvVar)
	}
}

func TestProfileSeedInheritance(t *testing.T) {
	if got := Heavy().WithSeed(9).Seed; got != 9 {
		t.Errorf("unpinned profile seed = %d, want 9", got)
	}
	pinned, _ := ParseProfile("heavy,seed=3")
	if got := pinned.WithSeed(9).Seed; got != 3 {
		t.Errorf("pinned profile seed = %d, want 3 preserved", got)
	}
}

// TestPlanDeterminism pins the tentpole property: plans depend only on
// (seed, FQDN) — same at any concurrency, different per seed.
func TestPlanDeterminism(t *testing.T) {
	prof := Heavy()
	prof.Seed = 42
	fqdns := make([]string, 4000)
	for i := range fqdns {
		fqdns[i] = fmt.Sprintf("fn-%d.lambda-url.us-east-1.on.aws", i)
	}

	// Reference schedule from a fresh injector, computed serially.
	ref := make([]Plan, len(fqdns))
	for i, f := range fqdns {
		ref[i] = New(prof).PlanFor(f)
	}

	// Recompute concurrently on one shared injector at several widths.
	for _, workers := range []int{1, 2, 8} {
		in := New(prof)
		got := make([]Plan, len(fqdns))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(fqdns); i += workers {
					got[i] = in.PlanFor(fqdns[i])
				}
			}(w)
		}
		wg.Wait()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d produced a different fault schedule", workers)
		}
	}

	// A different seed must produce a genuinely different schedule.
	other := prof
	other.Seed = 43
	same := 0
	for i, f := range fqdns {
		if reflect.DeepEqual(New(other).PlanFor(f), ref[i]) {
			same++
		}
	}
	if same == len(fqdns) {
		t.Error("changing the seed did not change the schedule")
	}
}

// TestPlanRates sanity-checks that injected rates land near the profile.
func TestPlanRates(t *testing.T) {
	prof := Heavy()
	prof.Seed = 1
	in := New(prof)
	const n = 20000
	var dns, reset, flap, trunc, lat int
	for i := 0; i < n; i++ {
		p := in.PlanFor(fmt.Sprintf("fn-%d.example.com", i))
		if p.DNSFail {
			dns++
		}
		if p.Reset {
			reset++
		}
		if p.FlapN > 0 {
			flap++
		}
		if p.Truncate {
			trunc++
		}
		if p.Latency {
			lat++
		}
		if p.Truncate && (p.TruncateAfter < 256 || p.TruncateAfter >= 640) {
			t.Fatalf("truncate budget %d outside [256, 640)", p.TruncateAfter)
		}
		if p.DNSFail && (p.Reset || p.FlapN > 0 || p.Truncate || p.Latency) {
			t.Fatal("DNS failure must preempt dial-level faults")
		}
	}
	check := func(name string, got int, rate float64) {
		t.Helper()
		want := rate * n
		// DNS preemption shaves ~1% off the dial-level classes; 40% slack
		// comfortably covers that plus binomial noise at n=20000.
		if float64(got) < want*0.6 || float64(got) > want*1.4 {
			t.Errorf("%s rate: got %d of %d, want ≈ %.0f", name, got, n, want)
		}
	}
	check("dns", dns, prof.DNSFail)
	check("reset", reset, prof.Reset)
	check("flap", flap, prof.Flap)
	check("truncate", trunc, prof.Truncate)
	check("latency", lat, prof.Latency)
}

func TestNilInjectorPassthrough(t *testing.T) {
	var in *Injector
	if p := in.PlanFor("x.example.com"); p.Faulty() {
		t.Error("nil injector produced faults")
	}
	if in.WrapResolve(nil) != nil {
		t.Error("nil injector wrapped a nil resolve")
	}
	called := false
	dial := in.WrapDial(func(ctx context.Context, network, addr string) (net.Conn, error) {
		called = true
		return nil, errors.New("sentinel")
	})
	if _, err := dial(context.Background(), "tcp", "h:80"); !called || err == nil {
		t.Error("nil injector did not pass the dial through")
	}
	in.Instrument(obs.NewRegistry())
	in.SetSpikeDelay(time.Second)
	if in.CorruptRecord(nil) {
		t.Error("nil injector corrupted a record")
	}
}

func TestWrapResolveInjectsDNS(t *testing.T) {
	prof := Profile{Name: "t", Seed: 2, DNSFail: 1}
	in := New(prof)
	reg := obs.NewRegistry()
	in.Instrument(reg)
	resolve := in.WrapResolve(func(string) error { return nil })
	err := resolve("always-fails.example.com")
	if err == nil || !strings.Contains(err.Error(), "no such host") {
		t.Fatalf("err = %v, want an injected no-such-host", err)
	}
	if got := reg.Snapshot().Counters["fault_dns_injected_total"]; got != 1 {
		t.Errorf("fault_dns_injected_total = %d, want 1", got)
	}
}

// pipeConn returns a connected pair backed by net.Pipe.
func pipeDialer(server func(c net.Conn)) DialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go server(c2)
		return c1, nil
	}
}

func TestWrapDialFlapRecovers(t *testing.T) {
	prof := Profile{Name: "t", Flap: 1}
	var in *Injector
	var plan Plan
	// Find a seed whose plan flaps exactly once so the test is not
	// schedule-shaped; the schedule is deterministic per seed.
	for seed := int64(1); ; seed++ {
		prof.Seed = seed
		in = New(prof)
		plan = in.PlanFor("flappy.example.com")
		if plan.FlapN == 1 {
			break
		}
	}
	dial := in.WrapDial(pipeDialer(func(c net.Conn) { c.Close() }))
	if _, err := dial(context.Background(), "tcp", "flappy.example.com:443"); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("first dial err = %v, want injected reset", err)
	}
	if c, err := dial(context.Background(), "tcp", "flappy.example.com:443"); err != nil {
		t.Fatalf("second dial err = %v, want recovery", err)
	} else {
		c.Close()
	}
}

func TestWrapDialResetIsPermanent(t *testing.T) {
	prof := Profile{Name: "t", Seed: 1, Reset: 1}
	in := New(prof)
	dial := in.WrapDial(pipeDialer(func(c net.Conn) { c.Close() }))
	for i := 0; i < 3; i++ {
		if _, err := dial(context.Background(), "tcp", "dead.example.com:443"); !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("dial %d err = %v, want injected reset", i, err)
		}
	}
}

func TestWrapDialTruncates(t *testing.T) {
	prof := Profile{Name: "t", Seed: 1, Truncate: 1}
	in := New(prof)
	payload := strings.Repeat("x", 4096)
	dial := in.WrapDial(pipeDialer(func(c net.Conn) {
		io := []byte(payload)
		c.Write(io)
		c.Close()
	}))
	c, err := dial(context.Background(), "tcp", "trunc.example.com:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var total int
	buf := make([]byte, 512)
	for {
		n, rerr := c.Read(buf)
		total += n
		if rerr != nil {
			if !errors.Is(rerr, ErrInjectedReset) {
				t.Fatalf("read err = %v, want injected reset", rerr)
			}
			break
		}
	}
	plan := in.PlanFor("trunc.example.com")
	if total != plan.TruncateAfter {
		t.Errorf("read %d bytes before reset, want the plan's budget %d", total, plan.TruncateAfter)
	}
}

// TestWrapDialTruncatedHTTPSFailsDial: the truncation budget never covers a
// TLS handshake, so a truncated port-443 dial fails whether or not the
// dialed conn runs one. A dial the layer below refuses stays its own error
// and is not counted as a truncation.
func TestWrapDialTruncatedHTTPSFailsDial(t *testing.T) {
	in := New(Profile{Name: "t", Seed: 1, Truncate: 1})
	reg := obs.NewRegistry()
	in.Instrument(reg)
	dial := in.WrapDial(pipeDialer(func(c net.Conn) { io.Copy(io.Discard, c) }))
	for i := 0; i < 2; i++ {
		if c, err := dial(context.Background(), "tcp", "trunc.example.com:443"); !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("dial %d: conn %v, err %v; want an injected reset", i, c, err)
		}
	}
	refused := errors.New("connection refused")
	dial = in.WrapDial(func(context.Context, string, string) (net.Conn, error) { return nil, refused })
	if _, err := dial(context.Background(), "tcp", "trunc.example.com:443"); err != refused {
		t.Fatalf("refused dial: err = %v, want the dialer's own error", err)
	}
	if got := reg.Snapshot().Counters["fault_truncations_injected_total"]; got != 2 {
		t.Errorf("fault_truncations_injected_total = %d, want 2", got)
	}
}

func TestWrapDialLatencyHonorsContext(t *testing.T) {
	prof := Profile{Name: "t", Seed: 1, Latency: 1}
	in := New(prof)
	in.SetSpikeDelay(time.Minute)
	dial := in.WrapDial(pipeDialer(func(c net.Conn) { c.Close() }))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := dial(ctx, "tcp", "slow.example.com:443")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("latency spike ignored the context (stalled %v)", elapsed)
	}
}
