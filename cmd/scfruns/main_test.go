package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/runs"
)

// benchText is a minimal 'go test -bench' transcript cmdBench can parse.
const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/analysis
cpu: Test CPU
BenchmarkTable2Resolution-8   	     100	  10000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkTable2Resolution-8   	     100	  10200 ns/op	    2048 B/op	      12 allocs/op
PASS
`

func TestRunDispatchExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"help flag", []string{"-h"}, 0},
		{"subcommand help flag", []string{"gate", "-h"}, 0},
		{"gate nothing to gate", []string{"gate"}, 2},
		{"gate bad err-tol", []string{"gate", "-err-tol", "banana"}, 2},
		{"gate bench flags unpaired", []string{"gate", "-bench-base", "x.json"}, 2},
		{"gate candidate without baseline", []string{"gate", "some-run"}, 2},
		{"show no args", []string{"show"}, 2},
		{"show unknown run", []string{"show", "-dir", t.TempDir(), "r-nope"}, 1},
		{"diff wrong arity", []string{"diff", "only-one"}, 2},
		{"matrix is not a subcommand", []string{"matrix"}, 2},
		{"report is not a subcommand", []string{"report", "-dir", t.TempDir()}, 2},
		{"bench missing input", []string{"bench", "-i", "no-such-file.txt"}, 1},
		{"prof is not a subcommand", []string{"prof", "show", "x"}, 2},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}

func TestRunBenchHistoryAppend(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(benchText), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	hist := filepath.Join(dir, runs.HistoryFile)
	if got := run([]string{"bench", "-i", in, "-o", out, "-history", hist, "-label", "pr-7"}); got != 0 {
		t.Fatalf("bench exit %d", got)
	}
	set, err := readBenchFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 2 || set.Results[0].Base != "BenchmarkTable2Resolution" {
		t.Fatalf("bench JSON wrong: %+v", set.Results)
	}
	if set.GOMAXPROCS != 8 || set.CPU != "Test CPU" || set.GoVersion != runtime.Version() {
		t.Fatalf("bench stamp wrong: %+v", set.Stamp)
	}
	b, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var entry runs.HistoryEntry
	if err := json.Unmarshal(b, &entry); err != nil {
		t.Fatalf("history must hold one JSON record: %v\n%s", err, b)
	}
	if entry.Label != "pr-7" || entry.Stamp != set.Stamp {
		t.Fatalf("history wrong: %+v", entry)
	}
	if ns := entry.Bench["BenchmarkTable2Resolution"].NsPerOp; ns != 10100 {
		t.Fatalf("history mean ns/op: want 10100, got %v", ns)
	}
}

// benchJSON runs 'scfruns bench' over one capture whose header names cpu and
// whose result names carry suffix (e.g. "-8", or "" for GOMAXPROCS 1), and
// returns the JSON file it wrote.
func benchJSON(t *testing.T, cpu, suffix string, ns int) string {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	text := fmt.Sprintf("goos: linux\ngoarch: amd64\ncpu: %s\nBenchmarkX%s 100 %d ns/op 10 allocs/op\n", cpu, suffix, ns)
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	if got := run([]string{"bench", "-i", in, "-o", out}); got != 0 {
		t.Fatalf("bench exit %d", got)
	}
	return out
}

func TestRunGateBenchStampExitCodes(t *testing.T) {
	base := benchJSON(t, "CPU A", "-8", 1000)
	same := benchJSON(t, "CPU A", "-8", 1000)
	slower := benchJSON(t, "CPU A", "-8", 3000)
	otherCPU := benchJSON(t, "CPU B", "-8", 1000)
	otherProcs := benchJSON(t, "CPU A", "-2", 1000)
	// A capture recorded before stamps carried GOMAXPROCS and the Go version.
	unstamped := filepath.Join(t.TempDir(), "old.json")
	old := &runs.BenchSet{
		Stamp:   runs.Stamp{Goos: "linux", Goarch: "amd64", CPU: "CPU A"},
		Results: []runs.BenchResult{{Name: "BenchmarkX-8", Base: "BenchmarkX", Iterations: 100, NsPerOp: 1000, AllocsPerOp: 10}},
	}
	f, err := os.Create(unstamped)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, tc := range []struct {
		name      string
		base, new string
		want      int
		out       string
	}{
		{"equal stamps, no drift", base, same, 0, "GATE PASSED"},
		{"equal stamps, ns/op regression", base, slower, 1, "BenchmarkX regressed"},
		{"cpu mismatch", base, otherCPU, 1, `not comparable: cpu "CPU A" vs "CPU B"`},
		{"gomaxprocs mismatch", base, otherProcs, 1, `not comparable: gomaxprocs "8" vs "2"`},
		{"missing stamp", unstamped, base, 1, `not comparable: gomaxprocs "" vs "8"`},
	} {
		var got int
		out := captureStdout(t, func() {
			got = run([]string{"gate", "-bench-base", tc.base, "-bench-new", tc.new})
		})
		if got != tc.want || !strings.Contains(out, tc.out) {
			t.Errorf("%s: exit %d (want %d), output:\n%s\nwant it to contain %q", tc.name, got, tc.want, out, tc.out)
		}
		if tc.want == 1 && strings.Contains(tc.out, "not comparable") &&
			(strings.Contains(out, "ns/op") || !strings.Contains(out, "GATE FAILED: 1 violation(s)")) {
			t.Errorf("%s: a refused comparison must print one violation and no deltas:\n%s", tc.name, out)
		}
	}
}

// timelineArchive writes one archive whose timeline.jsonl holds the given
// windows, returning its directory (usable as a run argument directly).
func timelineArchive(t *testing.T, root, id string, ws []timeline.Window) string {
	t.Helper()
	arch := &runs.Archive{
		Summary:  runs.Summary{Tool: "test", Meta: map[string]string{"seed": "1", "id": id}},
		Timings:  runs.Timings{CreatedAt: "2026-01-01T00:00:00Z", ElapsedNS: 1e9},
		Timeline: ws,
	}
	dir := filepath.Join(root, id)
	if err := runs.WriteDir(dir, arch); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunTimelineRenderDeterministic(t *testing.T) {
	root := t.TempDir()
	ws := []timeline.Window{
		{Index: 0, StartUS: 0, EndUS: 250000, Stage: "probe", Stages: []string{"identify", "probe"},
			Counters:  map[string]int64{"pdns_records_scanned_total": 120, "probe_requests_total": 40},
			Hists:     map[string]timeline.HistWindow{"probe_request_seconds": {Count: 40, P50: 0.01, P90: 0.04, P99: 0.09}},
			Resources: &obs.ResourcePeaks{HeapInuseBytes: 3 << 20, Goroutines: 12}},
		{Index: 1, StartUS: 250000, EndUS: 500000, Stage: "probe", Stages: []string{"probe"},
			Counters:  map[string]int64{"probe_requests_total": 55},
			Anomalies: []timeline.Anomaly{{Series: "fault_resets_injected_total", Kind: "activation", Value: 6}},
			Breaches:  []timeline.Breach{{Rule: "probe_error_rate", Group: "aws", Value: 0.41, Max: 0.25}}},
	}
	dir := timelineArchive(t, root, "r-timeline-test", ws)

	// Acceptance criterion: five renders of the same archive, identical bytes.
	var first string
	for i := 0; i < 5; i++ {
		out := filepath.Join(t.TempDir(), "tl.md")
		if got := run([]string{"timeline", "-o", out, dir}); got != 0 {
			t.Fatalf("render %d exit %d", i, got)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(b)
			continue
		}
		if string(b) != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
	for _, want := range []string{
		"2 windows covering 0.50s",
		"fault_resets_injected_total",
		"activation",
		"probe_error_rate/aws",
		"identify→probe",
		"| 120 | 40 |", // records and probes columns of window 0
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("rendered timeline missing %q:\n%s", want, first)
		}
	}

	// -diff against a clean run localizes the divergence at window 1.
	clean := timelineArchive(t, root, "r-timeline-clean", []timeline.Window{
		{Index: 0, StartUS: 0, EndUS: 250000, Stage: "probe"},
		{Index: 1, StartUS: 250000, EndUS: 500000, Stage: "probe"},
	})
	out := filepath.Join(t.TempDir(), "diff.md")
	if got := run([]string{"timeline", "-diff", "-o", out, dir, clean}); got != 0 {
		t.Fatalf("diff exit %d", got)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Divergence begins at window 1") {
		t.Fatalf("diff missing divergence callout:\n%s", b)
	}

	// list surfaces the anomaly count; archives without a timeline show "-".
	timelineArchive(t, root, "r-no-timeline", nil)
	listOut := captureStdout(t, func() {
		if got := run([]string{"list", "-dir", root}); got != 0 {
			t.Fatalf("list exit %d", got)
		}
	})
	if !strings.Contains(listOut, "Anom") {
		t.Fatalf("list missing Anom column:\n%s", listOut)
	}
}

func TestRunTimelineExitCodes(t *testing.T) {
	empty := timelineArchive(t, t.TempDir(), "r-no-timeline", nil)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no args", []string{"timeline"}, 2},
		{"diff wrong arity", []string{"timeline", "-diff", "only-one"}, 2},
		{"json with diff", []string{"timeline", "-diff", "-json", empty, empty}, 2},
		{"unknown run", []string{"timeline", "-dir", t.TempDir(), "r-nope"}, 1},
		{"no timeline recorded still renders", []string{"timeline", "-o", filepath.Join(t.TempDir(), "o.md"), empty}, 0},
		{"json of empty timeline", []string{"timeline", "-json", "-o", filepath.Join(t.TempDir(), "o.json"), empty}, 0},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
