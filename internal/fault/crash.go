// Seeded crashpoint schedule: a deterministic "kill -9 from inside". The
// crash-resume matrix needs the pipeline to die at a precise, reproducible
// stage boundary in a real subprocess, so the checkpoint on disk is exactly
// what a power loss would leave behind. The schedule is part of the chaos
// profile (`-chaos none,crash=probe`) but deliberately outside the
// profile's String()/Enabled() surface: the crashing invocation and the
// clean resume must hash to the same run ID.
package fault

import (
	"fmt"
	"os"
	"slices"
	"strings"
)

// CrashExitCode is the status a scheduled crash exits with — 137, the shell
// convention for SIGKILL, since the injected abort stands in for one.
const CrashExitCode = 137

// crashExit aborts the process; swapped in tests so crash scheduling can be
// asserted without dying.
var crashExit = func(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(CrashExitCode)
}

// parseCrashSpec parses the crash=<spec> option value into p. A stage name
// is kept as given: the pipeline's stage list is the injector's to check
// (see Crashpoints).
func parseCrashSpec(p *Profile, v string) error {
	p.CrashStage, p.CrashAuto = "", 0
	stage, arg, hasArg := strings.Cut(v, ":")
	switch {
	case v == "":
		return fmt.Errorf("fault: empty crash spec (want crash=<stage> or crash=auto[:k])")
	case stage != "auto":
		p.CrashStage = v
	case !hasArg:
		p.CrashAuto = 1
	default:
		var k int
		if _, err := fmt.Sscanf(arg, "%d", &k); err != nil || k < 1 {
			return fmt.Errorf("fault: bad crash spec %q (want auto:<k> with k >= 1)", v)
		}
		p.CrashAuto = k
	}
	return nil
}

// CrashSpec renders the profile's crash schedule for logs, or "" when none
// is set. It is intentionally not part of Profile.String(): run IDs must not
// see it.
func (p Profile) CrashSpec() string {
	if p.CrashAuto > 0 {
		return fmt.Sprintf("auto:%d", p.CrashAuto)
	}
	return p.CrashStage
}

// Crashpoints installs the pipeline's stage boundaries, in execution order,
// as the places a crash schedule may target: an explicit crash=<stage> must
// name one of them, and crash=auto draws from them. The caller owns the
// list; it must not change it afterwards.
func (in *Injector) Crashpoints(stages []string) error {
	if in == nil {
		return nil
	}
	if st := in.prof.CrashStage; st != "" && !slices.Contains(stages, st) {
		return fmt.Errorf("fault: bad crash stage %q (want one of %v, or auto)", st, stages)
	}
	in.stages = stages
	return nil
}

// crashPoint resolves the profile's kill point. An explicit stage passes
// through; auto mode derives the stage from seed ⊕ k through the
// crashpoint stream, every boundary Crashpoints installed with equal
// probability.
func (in *Injector) crashPoint() (stage string, ok bool) {
	if in == nil {
		return "", false
	}
	p := in.prof
	switch {
	case p.CrashStage != "":
		return p.CrashStage, true
	case p.CrashAuto > 0 && len(in.stages) > 0:
		s := newStream(uint64(p.Seed), uint64(p.CrashAuto)*0x9e3779b97f4a7c15, streamCrash)
		return in.stages[s.next()%uint64(len(in.stages))], true
	}
	return "", false
}

// CrashAtStage aborts the process if the schedule targets this stage's entry
// boundary. Called by core at every stage start.
func (in *Injector) CrashAtStage(stage string) {
	if st, ok := in.crashPoint(); !ok || st != stage {
		return
	}
	if in.crashFired.CompareAndSwap(false, true) {
		crashExit(fmt.Sprintf("fault: injected crash at stage boundary %q", stage))
	}
}
