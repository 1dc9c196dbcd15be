package fault

import (
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

func TestParseCrashSpecs(t *testing.T) {
	cases := []struct {
		spec  string
		stage string
		rows  int64
		auto  int
	}{
		{"none,crash=probe", "probe", 0, 0},
		{"crash=probe", "probe", 0, 0}, // bare option leaves the fault half unset
		{"crash=identify:9000", "identify", 9000, 0},
		{"heavy,crash=disclosure,seed=9", "disclosure", 0, 0},
		{"crash=auto", "", 0, 1},
		{"crash=auto:4", "", 0, 4},
	}
	for _, c := range cases {
		p, err := ParseProfile(c.spec)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", c.spec, err)
			continue
		}
		if p.CrashStage != c.stage || p.CrashRows != c.rows || p.CrashAuto != c.auto {
			t.Errorf("ParseProfile(%q) = stage %q rows %d auto %d, want %q/%d/%d",
				c.spec, p.CrashStage, p.CrashRows, p.CrashAuto, c.stage, c.rows, c.auto)
		}
	}
	for _, bad := range []string{
		"crash=bogus", "crash=identify:0", "crash=identify:-5",
		"crash=auto:0", "crash=identify:x", "crash=",
	} {
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
	p, err := ParseProfile("none,crash=identify:9000")
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
	if got := p.CrashSpec(); got != "identify:9000" {
		t.Errorf("CrashSpec() = %q", got)
	}
}

func TestCrashAtStage(t *testing.T) {
	fired := swapCrashExit(t)
	in := New(Profile{CrashStage: "probe"})
	if !in.CrashScheduled() {
		t.Fatal("CrashScheduled() = false with a stage target")
	}
	in.CrashAtStage("identify")
	in.CrashAtRow("probe", 100)
	if len(*fired) != 0 {
		t.Fatalf("crash fired early: %v", *fired)
	}
	in.CrashAtStage("probe")
	in.CrashAtStage("probe") // second hit must not re-fire
	if len(*fired) != 1 || !strings.Contains((*fired)[0], "probe") {
		t.Fatalf("fired = %v, want exactly one probe-boundary crash", *fired)
	}
}

func TestCrashAtRow(t *testing.T) {
	fired := swapCrashExit(t)
	in := New(Profile{CrashStage: "identify", CrashRows: 500})
	in.CrashAtStage("identify") // row-targeted: boundary must not fire
	in.CrashAtRow("identify", 499)
	in.CrashAtRow("probe", 500) // wrong stage
	if len(*fired) != 0 {
		t.Fatalf("crash fired early: %v", *fired)
	}
	in.CrashAtRow("identify", 500)
	in.CrashAtRow("identify", 501)
	if len(*fired) != 1 || !strings.Contains((*fired)[0], "row 500") {
		t.Fatalf("fired = %v, want exactly one row-500 crash", *fired)
	}
}

// TestCrashAutoDeterministic: auto mode must derive the same kill point from
// the same (seed, k), a different one for different k at least somewhere in
// a small sweep, and always a valid stage.
func TestCrashAutoDeterministic(t *testing.T) {
	stageOf := func(seed int64, k int) (string, int64) {
		st, rows, ok := New(Profile{Seed: seed, CrashAuto: k}).crashPoint()
		if !ok {
			t.Fatalf("auto:%d not scheduled", k)
		}
		if !validStage(st) {
			t.Fatalf("auto:%d resolved to invalid stage %q", k, st)
		}
		if rows > 0 && st != "identify" {
			t.Fatalf("auto:%d put a row target on stage %q", k, st)
		}
		return st, rows
	}
	varied := false
	for k := 1; k <= 8; k++ {
		s1, r1 := stageOf(7, k)
		s2, r2 := stageOf(7, k)
		if s1 != s2 || r1 != r2 {
			t.Fatalf("auto:%d not deterministic: %s:%d vs %s:%d", k, s1, r1, s2, r2)
		}
		if f, _ := stageOf(7, 1); k > 1 && (s1 != f) {
			varied = true
		}
	}
	if !varied {
		t.Error("auto:1..8 all resolved to the same stage — stream looks constant")
	}
	if in := New(Profile{}); in.CrashScheduled() {
		t.Error("empty profile claims a scheduled crash")
	}
}
