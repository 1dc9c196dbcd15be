package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runs"
)

// The crash-resume matrix re-executes this test binary as a child process so
// an injected crash is a real process death: the checkpoint directory holds
// exactly what a power loss would leave behind. TestMain diverts the child
// before any test runs.

const (
	envChild    = "SCF_CRASH_CHILD"
	envScale    = "SCF_CRASH_SCALE"
	envWorkers  = "SCF_CRASH_WORKERS"
	envChaos    = "SCF_CRASH_CHAOS"
	envDir      = "SCF_CRASH_DIR"
	envInterval = "SCF_CRASH_INTERVAL"
	envResume   = "SCF_CRASH_RESUME"
	envTimeout  = "SCF_CRASH_TIMEOUT_MS"
	// envFull widens the matrix from the rotated default to the cross
	// product of every stage boundary and worker count (make crash-full).
	envFull = "SCF_CRASH_FULL"
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		os.Exit(crashChildMain())
	}
	os.Exit(m.Run())
}

// crashChildMain is the pipeline invocation under test: config from env,
// checkpointing on, archive written on success. A scheduled crash aborts the
// process from inside with fault.CrashExitCode before this returns.
func crashChildMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	scale, err := strconv.ParseFloat(os.Getenv(envScale), 64)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", envScale, err))
	}
	workers, err := strconv.Atoi(os.Getenv(envWorkers))
	if err != nil {
		return fail(fmt.Errorf("%s: %w", envWorkers, err))
	}
	interval, err := strconv.ParseInt(os.Getenv(envInterval), 10, 64)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", envInterval, err))
	}
	timeoutMS, err := strconv.Atoi(os.Getenv(envTimeout))
	if err != nil {
		return fail(fmt.Errorf("%s: %w", envTimeout, err))
	}
	var prof fault.Profile
	if spec := os.Getenv(envChaos); spec != "" {
		if prof, err = fault.ParseProfile(spec); err != nil {
			return fail(err)
		}
	}
	elog := obs.NewEventLog()
	ctx := obs.ContextWithEventLog(context.Background(), elog)
	res, err := RunContext(ctx, Config{
		Seed:               1,
		Scale:              scale,
		Workers:            workers,
		SkipC2Scan:         true,
		ProbeTimeout:       time.Duration(timeoutMS) * time.Millisecond,
		Chaos:              prof,
		CheckpointDir:      os.Getenv(envDir),
		CheckpointInterval: interval,
		Resume:             os.Getenv(envResume) == "1",
	})
	if err != nil {
		return fail(err)
	}
	if _, err := runs.Write(os.Getenv(envDir), res.BuildArchive("scfpipe", elog)); err != nil {
		return fail(err)
	}
	return 0
}

// crashCell is one matrix coordinate.
type crashCell struct {
	spec    string // crash=<spec> chaos option
	workers int
}

func (c crashCell) name() string { return fmt.Sprintf("%s_w%d", c.spec, c.workers) }

// runChild re-execs the test binary as a pipeline child and returns its exit
// code and combined output.
func runChild(t *testing.T, dir, chaos, scale, timeoutMS string, workers int, interval int64, resume bool) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	// The child runs exactly the chaos spec the caller names. An ambient
	// SCF_CHAOS (make chaos) would otherwise reach only the invocation whose
	// spec is empty — core defers to the environment only for an unset
	// profile — so the crashing and the resuming child would run different
	// configurations and land in different run slots.
	cmd.Env = append(os.Environ(),
		fault.EnvVar+"=",
		envChild+"=1",
		envScale+"="+scale,
		envWorkers+"="+strconv.Itoa(workers),
		envChaos+"="+chaos,
		envDir+"="+dir,
		envInterval+"="+strconv.FormatInt(interval, 10),
		envTimeout+"="+timeoutMS,
		envResume+"="+map[bool]string{false: "0", true: "1"}[resume],
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("child failed to run: %v\n%s", err, out)
	return -1, ""
}

// archiveDir finds the single run slot a child archived under root.
func archiveDir(t *testing.T, root string) string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && e.Name()[0] != '.' {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("%d run slots under %s, want 1: %v", len(dirs), root, dirs)
	}
	return dirs[0]
}

// assertByteEqual compares one archive file between two run slots.
func assertByteEqual(t *testing.T, wantDir, gotDir, rel string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(wantDir, rel))
	if err != nil {
		t.Fatalf("baseline %s: %v", rel, err)
	}
	got, err := os.ReadFile(filepath.Join(gotDir, rel))
	if err != nil {
		t.Fatalf("resumed %s: %v", rel, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs between the resumed run and the uninterrupted baseline", rel)
	}
}

// deterministicFiles is everything in a run archive that must be
// byte-identical between a resumed run and an uninterrupted one.
func deterministicFiles(t *testing.T, dir string) []string {
	t.Helper()
	files := []string{runs.SummaryFile}
	arts, err := os.ReadDir(filepath.Join(dir, runs.ArtifactsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arts {
		files = append(files, filepath.Join(runs.ArtifactsDir, e.Name()))
	}
	return files
}

const (
	matrixScale     = "0.004"
	matrixTimeoutMS = "500"
	// matrixInterval forces mid-emission checkpoints well before the
	// identify row targets below (scale 0.004 emits ~24.5k rows).
	matrixInterval = int64(2500)
)

// matrixCells returns the crashpoint matrix: every stage boundary plus
// mid-emission row targets. The default rotates worker counts across stages
// to bound wall time; SCF_CRASH_FULL=1 runs the full cross product.
func matrixCells() []crashCell {
	workerSet := []int{1, 2, 8}
	var cells []crashCell
	if os.Getenv(envFull) == "1" {
		for _, st := range fault.Stages {
			for _, w := range workerSet {
				cells = append(cells, crashCell{spec: st, workers: w})
			}
		}
		for _, rows := range []string{"3000", "9000", "17000"} {
			for _, w := range workerSet {
				cells = append(cells, crashCell{spec: "identify:" + rows, workers: w})
			}
		}
		return cells
	}
	for i, st := range fault.Stages {
		cells = append(cells, crashCell{spec: st, workers: workerSet[i%len(workerSet)]})
	}
	for _, w := range workerSet {
		cells = append(cells, crashCell{spec: "identify:9000", workers: w})
	}
	return cells
}

// TestCrashResumeMatrix kills the pipeline at every crashpoint in the matrix
// — each stage boundary and mid-emission rows — in a real subprocess, resumes
// it, and requires the resumed archive's deterministic half (summary.json and
// every artifact) to be byte-identical to an uninterrupted run at the same
// worker count.
func TestCrashResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess matrix; skipped in -short")
	}
	// Uninterrupted baselines, one per worker count, shared by all cells.
	baselines := map[int]string{}
	for _, w := range []int{1, 2, 8} {
		dir := t.TempDir()
		if code, out := runChild(t, dir, "", matrixScale, matrixTimeoutMS, w, matrixInterval, false); code != 0 {
			t.Fatalf("baseline workers=%d exited %d:\n%s", w, code, out)
		}
		baselines[w] = archiveDir(t, dir)
	}

	for _, cell := range matrixCells() {
		cell := cell
		t.Run(cell.name(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			code, out := runChild(t, dir, "crash="+cell.spec, matrixScale, matrixTimeoutMS, cell.workers, matrixInterval, false)
			if code != fault.CrashExitCode {
				t.Fatalf("crash child exited %d, want %d:\n%s", code, fault.CrashExitCode, out)
			}
			// The crashed invocation must not have archived a complete run.
			if _, err := os.Stat(filepath.Join(dir, runs.SummaryFile)); err == nil {
				t.Fatal("crashed child wrote a summary")
			}
			if code, out = runChild(t, dir, "", matrixScale, matrixTimeoutMS, cell.workers, matrixInterval, true); code != 0 {
				t.Fatalf("resume child exited %d, want 0:\n%s", code, out)
			}
			got := archiveDir(t, dir)
			base := baselines[cell.workers]
			if filepath.Base(got) != filepath.Base(base) {
				t.Fatalf("resumed run ID %s, baseline %s — crash spec leaked into the config hash",
					filepath.Base(got), filepath.Base(base))
			}
			for _, rel := range deterministicFiles(t, base) {
				assertByteEqual(t, base, got, rel)
			}
		})
	}
}

// TestCrashResumeGoldenConfig crashes and resumes the golden-baseline
// configuration (seed 1, scale 0.01, workers 4, skip-c2, probe-timeout 2s)
// and requires the resumed run to reproduce the golden run's gated artifact
// fingerprints exactly — run ID r-3ed4ac535b0d included. This closes the
// loop: checkpoint/resume cannot move the repository's frozen baseline.
func TestCrashResumeGoldenConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	dir := t.TempDir()
	code, out := runChild(t, dir, "crash=cluster", "0.01", "2000", 4, 10000, false)
	if code != fault.CrashExitCode {
		t.Fatalf("crash child exited %d, want %d:\n%s", code, fault.CrashExitCode, out)
	}
	if code, out = runChild(t, dir, "", "0.01", "2000", 4, 10000, true); code != 0 {
		t.Fatalf("resume child exited %d, want 0:\n%s", code, out)
	}
	got := archiveDir(t, dir)

	goldenDir := filepath.Join("..", "runs", "testdata", "golden")
	var golden, resumed runs.Summary
	for path, dst := range map[string]*runs.Summary{
		filepath.Join(goldenDir, runs.SummaryFile): &golden,
		filepath.Join(got, runs.SummaryFile):       &resumed,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, dst); err != nil {
			t.Fatal(err)
		}
	}
	if resumed.ID != golden.ID {
		t.Fatalf("resumed run ID %s, golden %s", resumed.ID, golden.ID)
	}
	for name := range runs.DeterministicArtifacts {
		if resumed.Artifacts[name] != golden.Artifacts[name] {
			t.Errorf("%s fingerprint %s, golden %s", name, resumed.Artifacts[name], golden.Artifacts[name])
		}
	}
}

// TestRunIDIgnoresCheckpointConfig pins the identity rule the whole design
// rests on: checkpointing observes a run, it does not change which
// measurement the run is, so CheckpointDir/CheckpointInterval/Resume must be
// invisible to the run ID. A crashing invocation and its resume would
// otherwise land in different archive slots.
func TestRunIDIgnoresCheckpointConfig(t *testing.T) {
	base := Config{Seed: 1, Scale: 0.01, Workers: 4, SkipC2Scan: true, ProbeTimeout: 2 * time.Second}
	plain := (&Results{Config: base}).RunID()
	ck := base
	ck.CheckpointDir = "/somewhere/else"
	ck.CheckpointInterval = 777
	ck.Resume = true
	if got := (&Results{Config: ck}).RunID(); got != plain {
		t.Errorf("run ID with checkpoint config = %s, without = %s", got, plain)
	}
	crash := base
	crash.Chaos.CrashStage = "identify"
	crash.Chaos.CrashRows = 9000
	if got := (&Results{Config: crash}).RunID(); got != plain {
		t.Errorf("run ID with crash schedule = %s, without = %s", got, plain)
	}
}
