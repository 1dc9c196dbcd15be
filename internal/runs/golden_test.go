package runs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// The committed golden archive under testdata/golden is the `make gate`
// baseline: scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2.
// Regenerate it by re-running that command and copying .runs/<id>/ over.
// testdata/golden-chaos is the same configuration with -chaos heavy, gated
// with -no-calibration, and testdata/golden-c2 is the clean configuration
// with the C2 sweep on (no -skip-c2), gated with calibration. Both are
// regenerated the same way. No copy keeps the checkpoints/ directory.

func TestGoldenSelfGateIsClean(t *testing.T) {
	rec, err := Read(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(rec, rec)
	if v := rep.Gate(DefaultGateOptions()); len(v) != 0 {
		t.Fatalf("golden must gate clean against itself: %v", v)
	}
}

func TestGoldenShape(t *testing.T) {
	rec := readGoldenArchive(t, "golden")
	// Every calibration share the golden run measured must sit inside the
	// paper band its gate enforces — otherwise make gate would fail fresh
	// checkouts. skip-c2 runs still measure all ten shares.
	for _, tg := range PaperTargets {
		v, ok := rec.Summary.Calibration[tg.Name]
		if !ok {
			t.Fatalf("golden calibration missing %s", tg.Name)
		}
		if !tg.Contains(v) {
			t.Fatalf("golden %s = %.4f outside band [%.4f, %.4f]", tg.Name, v, tg.Lo, tg.Hi)
		}
	}
	if len(rec.Timings.Stages) == 0 || rec.Timings.Stage("probe") == nil {
		t.Fatalf("golden timings missing stages: %+v", rec.Timings.Stages)
	}
}

// TestGoldenChaosShape: the chaos-heavy baseline must be as self-consistent
// as the clean one, and must actually have absorbed faults.
func TestGoldenChaosShape(t *testing.T) {
	rec := readGoldenArchive(t, "golden-chaos")
	if len(rec.Summary.Degradations) == 0 {
		t.Fatal("chaos golden records no degradations")
	}
	opts := DefaultGateOptions()
	opts.Calibration = false // make gate's -no-calibration for this cell
	if v := Diff(rec, rec).Gate(opts); len(v) != 0 {
		t.Fatalf("chaos golden must gate clean against itself: %v", v)
	}
}

// TestGoldenC2Shape: the C2-on baseline holds every paper band, as its
// calibrated gate cell requires, and actually swept for C2 relays.
func TestGoldenC2Shape(t *testing.T) {
	rec := readGoldenArchive(t, "golden-c2")
	if rec.Summary.Meta["skip_c2_scan"] != "false" {
		t.Fatalf("C2 golden was captured with skip_c2_scan=%q", rec.Summary.Meta["skip_c2_scan"])
	}
	for _, tg := range PaperTargets {
		if v := rec.Summary.Calibration[tg.Name]; !tg.Contains(v) {
			t.Fatalf("C2 golden %s = %.4f outside band [%.4f, %.4f]", tg.Name, v, tg.Lo, tg.Hi)
		}
	}
	if v := Diff(rec, rec).Gate(DefaultGateOptions()); len(v) != 0 {
		t.Fatalf("C2 golden must gate clean against itself: %v", v)
	}
}

// readGoldenArchive reads testdata/<name> and checks the identity and
// fingerprint invariants every committed baseline must hold.
func readGoldenArchive(t *testing.T, name string) *Record {
	t.Helper()
	rec, err := Read(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Summary.ID != RunID(rec.Summary.ConfigHash) {
		t.Fatalf("ID %s does not derive from config hash %s", rec.Summary.ID, rec.Summary.ConfigHash)
	}
	if rec.Summary.ConfigHash != ConfigHash(rec.Summary.Meta) {
		t.Fatal("config hash does not match recorded meta — was meta edited by hand?")
	}
	for name := range DeterministicArtifacts {
		fp, ok := rec.Summary.Artifacts[name]
		if !ok || len(fp) != 64 {
			t.Fatalf("deterministic artifact %s missing or unfingerprinted (%q)", name, fp)
		}
		body, err := rec.ReadArtifact(name)
		if err != nil {
			t.Fatalf("artifact %s content missing: %v", name, err)
		}
		if Fingerprint(body) != fp {
			t.Fatalf("artifact %s content does not match its fingerprint", name)
		}
	}
	return rec
}

// TestGoldenTraceRendersEvents: each committed cell's trace.json is exactly
// what WriteChromeTrace renders from the cell's own events.jsonl, so the
// trace is a view of the event log and never a second record.
func TestGoldenTraceRendersEvents(t *testing.T) {
	for _, cell := range []string{"golden", "golden-chaos", "golden-c2"} {
		dir := filepath.Join("testdata", cell)
		f, err := os.Open(filepath.Join(dir, EventsFile))
		if err != nil {
			t.Fatal(err)
		}
		var events []obs.Event
		dec := json.NewDecoder(f)
		for dec.More() {
			var e obs.Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("%s: %s: %v", cell, EventsFile, err)
			}
			events = append(events, e)
		}
		f.Close()
		var got bytes.Buffer
		if err := obs.WriteChromeTrace(&got, events); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, TraceFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: %s is not the rendering of %s", cell, TraceFile, EventsFile)
		}
	}
}
