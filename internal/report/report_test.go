package report

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "name", "count", "share")
	tb.AddRow("alpha", 42, 0.125)
	tb.AddRow("beta-long-name", 7, 1.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Table X") {
		t.Errorf("title missing: %q", lines[0])
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[3], "0.12") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns aligned: header and rows share the first column width.
	hIdx := strings.Index(lines[1], "count")
	rIdx := strings.Index(lines[3], "42")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestPctAndCount(t *testing.T) {
	if Pct(0.0489) != "4.89%" {
		t.Errorf("Pct = %q", Pct(0.0489))
	}
	cases := map[int64]string{
		0: "0", 999: "999", 1000: "1,000", 531089: "531,089",
		1550000000: "1,550,000,000", -4500: "-4,500",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Figure T")
	f.Add("fqdns", []Point{
		{"2022-04", 100}, {"2022-05", 50}, {"2022-06", 0},
	})
	f.Annotate("2022-04", "launch event")
	out := f.String()
	if !strings.Contains(out, "Figure T") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "launch event") {
		t.Error("annotation missing")
	}
	lines := strings.Split(out, "\n")
	var bar100, bar50, bar0 int
	for _, l := range lines {
		n := strings.Count(l, "#")
		switch {
		case strings.HasPrefix(l, "2022-04"):
			bar100 = n
		case strings.HasPrefix(l, "2022-05"):
			bar50 = n
		case strings.HasPrefix(l, "2022-06"):
			bar0 = n
		}
	}
	if !(bar100 > bar50 && bar50 > bar0) {
		t.Errorf("bar lengths not proportional: %d/%d/%d\n%s", bar100, bar50, bar0, out)
	}
	if bar0 != 0 {
		t.Errorf("zero value drew a bar: %d", bar0)
	}
}

func TestFigureLogScale(t *testing.T) {
	f := NewFigure("log")
	f.LogScale = true
	f.Width = 30
	f.Add("s", []Point{{"a", 1_000_000}, {"b", 1_000}})
	out := f.String()
	var barA, barB int
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "a") {
			barA = strings.Count(l, "#")
		}
		if strings.HasPrefix(l, "b") {
			barB = strings.Count(l, "#")
		}
	}
	// On a log scale the 1000x gap compresses to a factor of two.
	if barA == 0 || barB == 0 || barA > barB*3 {
		t.Errorf("log bars = %d vs %d\n%s", barA, barB, out)
	}
}

func TestFigureMultiSeries(t *testing.T) {
	f := NewFigure("multi")
	f.Add("one", []Point{{"x", 1}})
	f.Add("two", []Point{{"x", 2}})
	out := f.String()
	if !strings.Contains(out, "-- one --") || !strings.Contains(out, "-- two --") {
		t.Errorf("series headers missing:\n%s", out)
	}
}

func TestTopN(t *testing.T) {
	m := map[string]int64{"a": 5, "b": 10, "c": 1, "d": 10}
	pts := TopN(m, 2)
	if len(pts) != 2 || pts[0].Label != "b" || pts[1].Label != "d" {
		t.Errorf("TopN = %v", pts)
	}
	if got := TopN(m, 99); len(got) != 4 {
		t.Errorf("TopN clamp = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	out := Comparisons("check", []Comparison{
		{"metric-a", "10%", "11%", true},
		{"metric-b", "5", "50", false},
	})
	if !strings.Contains(out, "yes") || !strings.Contains(out, "NO") {
		t.Errorf("comparison marks missing:\n%s", out)
	}
}

func TestHistogramHelper(t *testing.T) {
	out := Histogram("h", []Point{{"0.0-0.5", 4}, {"0.5-1.0", 2}}, 10)
	if !strings.Contains(out, "0.0-0.5") {
		t.Errorf("histogram missing bucket:\n%s", out)
	}
}

// TestStageTimings pins the stage table scfpipe prints, rendered from a
// hand-built span tree through FlattenStages: a root with attributes and a
// nested child with attributes and no CPU, then a root with an error.
func TestStageTimings(t *testing.T) {
	tree := []obs.SpanRecord{
		{Name: "identify", WallNS: 150e6, CPUNS: 100e6,
			Attrs: []obs.Attr{{Key: "records", Value: "1234"}, {Key: "workers", Value: "4"}},
			Children: []obs.SpanRecord{
				{Name: "emit-shard-0", WallNS: 140_250_000, Attrs: []obs.Attr{{Key: "records", Value: "617"}}},
			}},
		{Name: "probe", WallNS: 2e9, CPUNS: 12e8, Err: "context canceled"},
	}
	want := "Stage timings\n" +
		"Stage           Wall      CPU    Share   Notes                 \n" +
		"--------------  --------  -----  ------  ----------------------\n" +
		"identify        150ms     100ms  6.98%   records=1234 workers=4\n" +
		"  emit-shard-0  140.25ms  -              records=617           \n" +
		"probe           2s        1.2s   93.02%  ERR: context canceled \n" +
		"total           2.15s                                          \n"
	if got := StageTimings(obs.FlattenStages(tree)); got != want {
		t.Fatalf("stage table drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
