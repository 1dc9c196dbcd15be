package runs

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestParseCellsCrossProduct(t *testing.T) {
	cells, err := ParseCells("scale=0.01;workers=1,8;chaos=none,heavy")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s0.01-w1-cnone", "s0.01-w1-cheavy", "s0.01-w8-cnone", "s0.01-w8-cheavy"}
	if len(cells) != len(want) {
		t.Fatalf("want %d cells, got %d: %v", len(want), len(cells), cells)
	}
	for i, w := range want {
		if cells[i].ID() != w {
			t.Fatalf("cell %d: want %s, got %s", i, w, cells[i].ID())
		}
	}
}

func TestParseCellsDefaults(t *testing.T) {
	cells, err := ParseCells("workers=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (Cell{Scale: 0.01, Workers: 2, Chaos: "none"}) {
		t.Fatalf("unexpected cells: %+v", cells)
	}
}

func TestParseCellsErrors(t *testing.T) {
	for _, spec := range []string{
		"scale=zero",
		"workers=0",
		"chaos=apocalyptic",
		"shards=4",
		"scale:0.01",
	} {
		if _, err := ParseCells(spec); err == nil {
			t.Fatalf("spec %q: want error", spec)
		}
	}
}

// cellArchive builds a minimal archive for one matrix cell with a single
// identify stage of the given wall time.
func cellArchive(c Cell, identifyWallNS int64) *Archive {
	return &Archive{
		Summary: Summary{
			Tool: "test",
			Meta: map[string]string{
				"scale":   "0.01",
				"workers": "1",
				"chaos":   c.Chaos,
				"cell":    c.ID(),
			},
		},
		Timings: Timings{
			ElapsedNS: identifyWallNS * 2,
			Stages:    []obs.StageTiming{{Path: "identify", WallNS: identifyWallNS, CPUNS: identifyWallNS}},
			Resources: []obs.ResourceStats{{
				Stage: "identify", Samples: 3,
				MaxHeapInuseBytes: 1 << 20, MaxGoroutines: 8, GCCount: 1,
			}},
		},
	}
}

func writeCell(t *testing.T, root string, c Cell, wallNS int64) {
	t.Helper()
	if err := WriteDir(filepath.Join(root, MatrixDir, c.ID()), cellArchive(c, wallNS)); err != nil {
		t.Fatal(err)
	}
}

func TestListMatrixSortedAndMissingRootEmpty(t *testing.T) {
	root := t.TempDir()
	if recs, err := ListMatrix(root); err != nil || recs != nil {
		t.Fatalf("missing matrix dir: want empty, got %v err %v", recs, err)
	}
	b := Cell{Scale: 0.01, Workers: 8, Chaos: "none"}
	a := Cell{Scale: 0.01, Workers: 1, Chaos: "none"}
	writeCell(t, root, b, 1e6)
	writeCell(t, root, a, 1e6)
	recs, err := ListMatrix(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || filepath.Base(recs[0].Dir) != a.ID() || filepath.Base(recs[1].Dir) != b.ID() {
		t.Fatalf("matrix not sorted by cell ID: %v", recs)
	}
	if len(recs[0].Timings.Resources) != 1 {
		t.Fatalf("resource stats did not round-trip: %+v", recs[0].Timings)
	}
}

func TestGateMatrixFailsRegressedCellOnly(t *testing.T) {
	baseRoot, candRoot := t.TempDir(), t.TempDir()
	flat := Cell{Scale: 0.01, Workers: 1, Chaos: "none"}
	hot := Cell{Scale: 0.01, Workers: 8, Chaos: "heavy"}
	writeCell(t, baseRoot, flat, 1e9)
	writeCell(t, baseRoot, hot, 1e9)
	writeCell(t, candRoot, flat, 1e9) // happy path flat
	writeCell(t, candRoot, hot, 4e9)  // heavy-chaos workers-8 regressed 4x
	v, err := GateMatrix(baseRoot, candRoot, DefaultGateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "["+hot.ID()+"]") || !strings.Contains(v[0], "identify") {
		t.Fatalf("want exactly the hot cell's stage violation, got %v", v)
	}
}

func TestGateMatrixMissingCandidateCell(t *testing.T) {
	baseRoot, candRoot := t.TempDir(), t.TempDir()
	c := Cell{Scale: 0.01, Workers: 1, Chaos: "none"}
	writeCell(t, baseRoot, c, 1e9)
	v, err := GateMatrix(baseRoot, candRoot, DefaultGateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "missing from candidate") {
		t.Fatalf("want a missing-cell violation, got %v", v)
	}
	// No baseline cells at all is a hard error, not a pass.
	if _, err := GateMatrix(candRoot, baseRoot, DefaultGateOptions()); err == nil {
		t.Fatal("empty baseline matrix must error")
	}
}
