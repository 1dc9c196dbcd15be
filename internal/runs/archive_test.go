package runs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

func sampleArchive(created string) *Archive {
	return &Archive{
		Summary: Summary{
			Tool: "test",
			Meta: map[string]string{"seed": "1", "scale": "0.004", "workers": "4"},
			Degradations: []obs.Degradation{
				{Stage: "probe", Kind: "conn-retries", Count: 3},
			},
			Calibration: map[string]float64{"unreachable_share": 0.021},
		},
		Timings: Timings{
			CreatedAt: created,
			ElapsedNS: 5e9,
			Stages: []obs.StageTiming{
				{Path: "identify", WallNS: 2e9, CPUNS: 4e9},
				{Path: "probe", WallNS: 3e9, CPUNS: 1e9},
			},
		},
		Artifacts: map[string]string{
			"table2.txt": "table two body\n",
			"fig5.txt":   "figure five body\n",
		},
	}
}

func TestConfigHashDeterministic(t *testing.T) {
	a := map[string]string{"seed": "1", "scale": "0.01", "workers": "4"}
	b := map[string]string{"workers": "4", "seed": "1", "scale": "0.01"}
	if ConfigHash(a) != ConfigHash(b) {
		t.Fatal("ConfigHash must be order-independent")
	}
	c := map[string]string{"seed": "2", "scale": "0.01", "workers": "4"}
	if ConfigHash(a) == ConfigHash(c) {
		t.Fatal("different configs must not collide")
	}
	id := RunID(ConfigHash(a))
	if !strings.HasPrefix(id, "r-") || len(id) != 14 {
		t.Fatalf("RunID = %q, want r-<12 hex>", id)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	root := t.TempDir()
	a := sampleArchive("2026-08-06T00:00:00Z")
	dir, err := Write(root, a)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir) != a.Summary.ID {
		t.Fatalf("dir %s does not end in run ID %s", dir, a.Summary.ID)
	}
	// Fingerprints were filled in from the artifact contents.
	want := Fingerprint("table two body\n")
	if a.Summary.Artifacts["table2.txt"] != want {
		t.Fatalf("fingerprint = %s, want %s", a.Summary.Artifacts["table2.txt"], want)
	}

	rec, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Summary.ID != a.Summary.ID || rec.Summary.ConfigHash != a.Summary.ConfigHash {
		t.Fatalf("roundtrip identity mismatch: %+v", rec.Summary)
	}
	if rec.Timings.ElapsedNS != 5e9 || len(rec.Timings.Stages) != 2 {
		t.Fatalf("roundtrip timings mismatch: %+v", rec.Timings)
	}
	if got := rec.Timings.Stage("probe"); got == nil || got.WallNS != 3e9 {
		t.Fatalf("Stage(probe) = %+v", got)
	}
	if rec.Timings.Stage("nope") != nil {
		t.Fatal("Stage(nope) should be nil")
	}
	body, err := rec.ReadArtifact("fig5.txt")
	if err != nil || body != "figure five body\n" {
		t.Fatalf("ReadArtifact = %q, %v", body, err)
	}
}

func TestWriteCollidesOnSameConfig(t *testing.T) {
	root := t.TempDir()
	d1, err := Write(root, sampleArchive("2026-08-06T00:00:00Z"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Write(root, sampleArchive("2026-08-06T01:00:00Z"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("identical configs should share a slot: %s vs %s", d1, d2)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 run dir, got %d", len(entries))
	}
}

func TestListNewestFirst(t *testing.T) {
	root := t.TempDir()
	old := sampleArchive("2026-08-01T00:00:00Z")
	old.Summary.Meta["seed"] = "2" // distinct config, distinct slot
	if _, err := Write(root, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(root, sampleArchive("2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	recs, err := List(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(recs))
	}
	if recs[0].Timings.CreatedAt < recs[1].Timings.CreatedAt {
		t.Fatalf("List not newest-first: %s before %s",
			recs[0].Timings.CreatedAt, recs[1].Timings.CreatedAt)
	}
}

func TestListMissingRoot(t *testing.T) {
	recs, err := List(filepath.Join(t.TempDir(), "absent"))
	if err != nil || recs != nil {
		t.Fatalf("List(absent) = %v, %v; want nil, nil", recs, err)
	}
}

func TestWriteOptionalPieces(t *testing.T) {
	root := t.TempDir()
	elog := obs.NewEventLog()
	elog.Emit(obs.EventNote, "hello")
	a := sampleArchive("2026-08-06T00:00:00Z")
	a.Events = elog
	dir, err := Write(root, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{SummaryFile, TimingsFile, EventsFile, TraceFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("manifest.json written (stat err %v); the archive keeps one record per fact", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(b)), "[") {
		t.Fatalf("trace.json is not a JSON array: %.40s", b)
	}
}

// TestArchiveTimelineRoundtrip: an archive carrying timeline windows lands
// them as timeline.jsonl, ReadTimeline restores them, TimelineAnomalies
// counts annotations, and a timeline-free archive reports (0, false).
func TestArchiveTimelineRoundtrip(t *testing.T) {
	root := t.TempDir()
	a := sampleArchive("2026-01-01T00:00:00Z")
	a.Timeline = []timeline.Window{
		{Index: 0, EndUS: 250_000, Stage: "identify", Counters: map[string]int64{"pdns_records_total": 10}},
		{Index: 1, StartUS: 250_000, EndUS: 500_000, Stage: "probe",
			Anomalies: []timeline.Anomaly{{Series: "fault_resets_injected_total", Kind: "activation", Value: 4}},
			Breaches:  []timeline.Breach{{Rule: "probe-conn-error-rate", Group: "aws", Value: 0.4, Max: 0.02}}},
	}
	dir, err := Write(root, a)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ReadTimeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[1].Anomalies[0].Kind != "activation" || ws[0].Counters["pdns_records_total"] != 10 {
		t.Fatalf("restored timeline = %+v", ws)
	}
	if n, ok := TimelineAnomalies(dir); !ok || n != 1 {
		t.Fatalf("TimelineAnomalies = %d,%v, want 1,true", n, ok)
	}

	// No timeline: no file, nil read, ok=false count.
	b := sampleArchive("2026-01-01T00:00:00Z")
	b.Summary.Meta = map[string]string{"seed": "2"}
	bdir, err := Write(root, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(bdir, TimelineFile)); !os.IsNotExist(err) {
		t.Fatalf("timeline-free archive wrote %s (err=%v)", TimelineFile, err)
	}
	if ws, err := ReadTimeline(bdir); err != nil || ws != nil {
		t.Fatalf("ReadTimeline without file = %v, %v", ws, err)
	}
	if _, ok := TimelineAnomalies(bdir); ok {
		t.Fatal("TimelineAnomalies reported ok without a timeline")
	}
}
