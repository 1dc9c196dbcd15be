package fault

import (
	"slices"
	"strings"
	"testing"
)

// swapCrashExit replaces the process abort with a recorder for the duration
// of a test.
func swapCrashExit(t *testing.T) *[]string {
	t.Helper()
	var fired []string
	orig := crashExit
	crashExit = func(msg string) { fired = append(fired, msg) }
	t.Cleanup(func() { crashExit = orig })
	return &fired
}

// testStages stands in for the pipeline's stage table, which core installs
// with Crashpoints.
var testStages = []string{"substrate", "identify", "probe", "sanitise"}

func TestParseCrashSpecs(t *testing.T) {
	cases := []struct {
		spec  string
		stage string
		auto  int
	}{
		{"none,crash=probe", "probe", 0},
		{"crash=probe", "probe", 0}, // bare option leaves the fault half unset
		{"heavy,crash=disclosure,seed=9", "disclosure", 0},
		{"crash=auto", "", 1},
		{"crash=auto:4", "", 4},
	}
	for _, c := range cases {
		p, err := ParseProfile(c.spec)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", c.spec, err)
			continue
		}
		if p.CrashStage != c.stage || p.CrashAuto != c.auto {
			t.Errorf("ParseProfile(%q) = stage %q auto %d, want %q/%d",
				c.spec, p.CrashStage, p.CrashAuto, c.stage, c.auto)
		}
	}
	for _, bad := range []string{"crash=auto:0", "crash=auto:x", "crash="} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

// TestCrashSpecOutsideRunIdentity pins the run-ID sharing contract: the
// crash schedule must be invisible to Profile.String() and Enabled(), since
// the crashing invocation and the clean resume hash the chaos string into
// the same run ID.
func TestCrashSpecOutsideRunIdentity(t *testing.T) {
	p, err := ParseProfile("none,crash=identify")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Error("a crash schedule alone must not enable fault injection")
	}
	clean, err := ParseProfile("none")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != clean.String() {
		t.Errorf("String() = %q with crash spec, %q without — run IDs would diverge", p.String(), clean.String())
	}
	if got := p.CrashSpec(); got != "identify" {
		t.Errorf("CrashSpec() = %q", got)
	}
}

func TestCrashAtStage(t *testing.T) {
	fired := swapCrashExit(t)
	in := New(Profile{CrashStage: "probe"})
	in.CrashAtStage("identify")
	if len(*fired) != 0 {
		t.Fatalf("crash fired early: %v", *fired)
	}
	in.CrashAtStage("probe")
	in.CrashAtStage("probe") // second hit must not re-fire
	if len(*fired) != 1 || !strings.Contains((*fired)[0], "probe") {
		t.Fatalf("fired = %v, want exactly one probe-boundary crash", *fired)
	}
}

// TestCrashAutoDeterministic: auto mode must derive the same kill point from
// the same (seed, k), a different one for different k at least somewhere in
// a small sweep, and always one of the installed stages.
func TestCrashAutoDeterministic(t *testing.T) {
	stageOf := func(seed int64, k int) string {
		in := New(Profile{Seed: seed, CrashAuto: k})
		if err := in.Crashpoints(testStages); err != nil {
			t.Fatal(err)
		}
		st, ok := in.crashPoint()
		if !ok {
			t.Fatalf("auto:%d not scheduled", k)
		}
		if !slices.Contains(testStages, st) {
			t.Fatalf("auto:%d resolved to invalid stage %q", k, st)
		}
		return st
	}
	varied := false
	for k := 1; k <= 8; k++ {
		s1, s2 := stageOf(7, k), stageOf(7, k)
		if s1 != s2 {
			t.Fatalf("auto:%d not deterministic: %s vs %s", k, s1, s2)
		}
		varied = varied || s1 != stageOf(7, 1)
	}
	if !varied {
		t.Error("auto:1..8 all resolved to the same stage — stream looks constant")
	}
	if _, ok := New(Profile{}).crashPoint(); ok {
		t.Error("empty profile claims a scheduled crash")
	}
	if _, ok := New(Profile{CrashAuto: 1}).crashPoint(); ok {
		t.Error("auto crash scheduled with no stages installed")
	}
}
