package core

import (
	"context"
	"encoding/json"
	"io"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestProfilePreservesGolden is the golden-preservation proof for -profile:
// at several worker counts, a profiled run's deterministic half — run ID,
// summary, and every artifact — is byte-identical to the unprofiled run's.
// Profiling observes the pipeline; it must never move the measurement.
func TestProfilePreservesGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		base := runOnce(t, workers, false)
		prof := runOnce(t, workers, true)

		if got, want := prof.RunID(), base.RunID(); got != want {
			t.Fatalf("workers=%d: profiled run ID %s != unprofiled %s", workers, got, want)
		}
		barch := base.BuildArchive("test", obs.NewEventLog())
		parch := prof.BuildArchive("test", obs.NewEventLog())
		bsum, err := json.Marshal(barch.Summary)
		if err != nil {
			t.Fatal(err)
		}
		psum, err := json.Marshal(parch.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if string(bsum) != string(psum) {
			t.Fatalf("workers=%d: profiled summary differs from unprofiled", workers)
		}
		for name, content := range barch.Artifacts {
			if parch.Artifacts[name] != content {
				t.Fatalf("workers=%d: artifact %s differs under -profile", workers, name)
			}
		}

		// The profiled side must actually have profiled: at least two
		// distinct snapshot kinds (the acceptance floor), none on the
		// unprofiled side, and everything archived goes to Profiles.
		if len(base.Profiles) != 0 {
			t.Fatalf("workers=%d: unprofiled run captured %d profiles", workers, len(base.Profiles))
		}
		kinds := map[string]bool{}
		for _, s := range prof.Profiles {
			kinds[s.Kind] = true
		}
		if len(kinds) < 2 {
			t.Fatalf("workers=%d: want >=2 profile kinds, got %v", workers, kinds)
		}
		if len(parch.Profiles) != len(prof.Profiles) {
			t.Fatalf("workers=%d: archive carries %d profiles, results %d", workers, len(parch.Profiles), len(prof.Profiles))
		}
	}
}

func runOnce(t *testing.T, workers int, profile bool) *Results {
	t.Helper()
	cfg := Config{
		Seed: 7, Scale: 0.002, Workers: workers, SkipC2Scan: true,
		ProbeTimeout: 500 * time.Millisecond,
		Profile:      profile,
	}
	elog := obs.NewEventLog()
	res, err := RunContext(obs.ContextWithEventLog(context.Background(), elog), cfg)
	if err != nil {
		t.Fatalf("workers=%d profile=%v: %v", workers, profile, err)
	}
	return res
}

// TestProfileErrorIsOneNote: a capture failure degrades to exactly one
// profile-error note, emitted after the capturer stops, and the boundary
// snapshots survive it. Holding the process's CPU profile makes Start fail.
func TestProfileErrorIsOneNote(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("cannot hold the CPU profile: %v", err)
	}
	defer pprof.StopCPUProfile()
	elog := obs.NewEventLog()
	res, err := RunContext(obs.ContextWithEventLog(context.Background(), elog), Config{
		Seed: 7, Scale: 0.002, Workers: 2, SkipC2Scan: true,
		ProbeTimeout: 500 * time.Millisecond, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := elog.Events()
	var notes []obs.Event
	noteAt, lastStage := -1, -1
	for i, e := range events {
		if e.Type == obs.EventNote && e.Name == "profile-error" {
			notes = append(notes, e)
			noteAt = i
		}
		if e.Name == "disclosure" {
			lastStage = i
		}
	}
	if len(notes) != 1 {
		t.Fatalf("want exactly one profile-error note, got %d: %+v", len(notes), notes)
	}
	if lastStage < 0 || noteAt < lastStage {
		t.Fatalf("profile-error note at event %d must follow the last stage's events (at %d)", noteAt, lastStage)
	}
	if d := notes[0].Attrs; len(d) != 1 || !strings.Contains(d[0].Value, "cpu profile") {
		t.Fatalf("profile-error detail: %+v", d)
	}
	if len(res.Profiles) == 0 {
		t.Fatal("boundary snapshots must survive a failed CPU capture")
	}
	for _, s := range res.Profiles {
		if s.Kind == "cpu" {
			t.Fatal("a run that could not start the CPU profile archived one")
		}
	}
}
