package runs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// testStamp is a complete stamp; sets that share it are comparable.
var testStamp = Stamp{Goos: "linux", Goarch: "amd64", CPU: "AMD EPYC 7B13", GOMAXPROCS: 8, GoVersion: "go1.22.0"}

const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: AMD EPYC 7B13
BenchmarkPipeline/scale=0.002-8         	       2	 512345678 ns/op	12345678 B/op	   98765 allocs/op
BenchmarkPipeline/scale=0.002-8         	       2	 498765432 ns/op	12345600 B/op	   98700 allocs/op
BenchmarkAggregate/workers=4-8          	      10	 103456789 ns/op	  934567 records/s
BenchmarkQuantile                       	 5000000	       251.3 ns/op
PASS
ok  	repro/internal/core	12.345s
`

func TestParseBench(t *testing.T) {
	set, err := ParseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if set.Goos != "linux" || set.Goarch != "amd64" || set.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header parse: %+v", set)
	}
	if len(set.Results) != 4 {
		t.Fatalf("want 4 result rows (count repeats kept), got %d", len(set.Results))
	}
	r0 := set.Results[0]
	if r0.Base != "BenchmarkPipeline/scale=0.002" || r0.Iterations != 2 || r0.NsPerOp != 512345678 {
		t.Fatalf("row 0: %+v", r0)
	}
	if r0.Pkg != "repro/internal/core" || r0.BytesPerOp != 12345678 || r0.AllocsPerOp != 98765 {
		t.Fatalf("row 0 units: %+v", r0)
	}
	if got := set.Results[2].Extra["records/s"]; got != 934567 {
		t.Fatalf("extra unit: %v", got)
	}
	// A bare name with no -GOMAXPROCS suffix survives intact.
	if set.Results[3].Base != "BenchmarkQuantile" || set.Results[3].NsPerOp != 251.3 {
		t.Fatalf("row 3: %+v", set.Results[3])
	}
	// -8 suffixes mixed with a bare name (GOMAXPROCS 1): no single value.
	if set.GOMAXPROCS != 0 || set.GoVersion != "" {
		t.Fatalf("mixed suffixes must leave GOMAXPROCS unknown, got %+v", set.Stamp)
	}
}

func TestParseBenchGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		text string
		want int
	}{
		{"BenchmarkA-2 10 5 ns/op\nBenchmarkB/w=4-2 10 5 ns/op\n", 2},
		{"BenchmarkA 10 5 ns/op\n", 1},
		{"BenchmarkA-2 10 5 ns/op\nBenchmarkA-4 10 5 ns/op\n", 0},
	} {
		set, err := ParseBench(strings.NewReader(tc.text))
		if err != nil {
			t.Fatal(err)
		}
		if set.GOMAXPROCS != tc.want {
			t.Errorf("%q: GOMAXPROCS %d, want %d", tc.text, set.GOMAXPROCS, tc.want)
		}
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := ParseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("a stream with no benchmark lines must error")
	}
}

func TestBenchJSONRoundtrip(t *testing.T) {
	set, err := ParseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The output must be plain parseable JSON (the `jq .` acceptance check).
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	back, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(set.Results) || back.CPU != set.CPU {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
}

func TestMeanAndGate(t *testing.T) {
	set, err := ParseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	means := set.MeanPoints()
	want := (512345678.0 + 498765432.0) / 2
	if got := means["BenchmarkPipeline/scale=0.002"].NsPerOp; math.Abs(got-want) > 1 {
		t.Fatalf("mean = %f, want %f", got, want)
	}

	set.Stamp = testStamp
	slow := &BenchSet{Stamp: testStamp, Results: []BenchResult{
		{Name: "BenchmarkQuantile", Base: "BenchmarkQuantile", Iterations: 1, NsPerOp: 251.3 * 3},
	}}
	v := GateBench(set, slow, 0.5, 1.10)
	if len(v) != 1 || !strings.Contains(v[0], "BenchmarkQuantile") {
		t.Fatalf("want one bench violation, got %v", v)
	}
	// One-sided benchmarks (suite evolved) never gate.
	if v := GateBench(set, set, 0.5, 1.10); len(v) != 0 {
		t.Fatalf("identical sets must pass, got %v", v)
	}
}

func TestGateBenchAllocs(t *testing.T) {
	base := &BenchSet{Stamp: testStamp, Results: []BenchResult{
		{Name: "BenchmarkX", Base: "BenchmarkX", Iterations: 1, NsPerOp: 100, AllocsPerOp: 1000},
	}}
	leaky := &BenchSet{Stamp: testStamp, Results: []BenchResult{
		{Name: "BenchmarkX", Base: "BenchmarkX", Iterations: 1, NsPerOp: 100, AllocsPerOp: 1200},
	}}
	v := GateBench(base, leaky, 0.5, 1.10)
	if len(v) != 1 || !strings.Contains(v[0], "alloc regression") {
		t.Fatalf("want one alloc violation, got %v", v)
	}
	// Within tolerance passes.
	ok := &BenchSet{Stamp: testStamp, Results: []BenchResult{
		{Name: "BenchmarkX", Base: "BenchmarkX", Iterations: 1, NsPerOp: 100, AllocsPerOp: 1050},
	}}
	if v := GateBench(base, ok, 0.5, 1.10); len(v) != 0 {
		t.Fatalf("1.05x allocs within 1.10x tolerance must pass, got %v", v)
	}
	// allocsTol <= 0 disables the alloc check entirely.
	if v := GateBench(base, leaky, 0.5, 0); len(v) != 0 {
		t.Fatalf("disabled alloc gate must pass, got %v", v)
	}
	// A candidate without -benchmem data (allocs 0) must not trip the gate.
	noMem := &BenchSet{Stamp: testStamp, Results: []BenchResult{
		{Name: "BenchmarkX", Base: "BenchmarkX", Iterations: 1, NsPerOp: 100},
	}}
	if v := GateBench(base, noMem, 0.5, 1.10); len(v) != 0 {
		t.Fatalf("missing alloc data must not gate, got %v", v)
	}
	// The human-readable diff carries the alloc columns.
	out := RenderBenchDiff(base, leaky)
	if !strings.Contains(out, "allocs/op") || !strings.Contains(out, "1.20x") {
		t.Fatalf("diff rendering missing alloc ratio:\n%s", out)
	}
}

// Captures taken on different hosts, core counts or toolchains, or without a
// complete stamp, must not be compared: the gate reports one "not comparable"
// violation naming the field, in place of any ns/op or allocs/op delta.
func TestGateBenchRefusesMismatchedStamps(t *testing.T) {
	results := func(ns float64) []BenchResult {
		return []BenchResult{{Name: "BenchmarkX-8", Base: "BenchmarkX", Iterations: 1, NsPerOp: ns, AllocsPerOp: 10}}
	}
	otherCPU, otherProcs, noVersion := testStamp, testStamp, testStamp
	otherCPU.CPU = "Intel(R) Xeon(R) Processor"
	otherProcs.GOMAXPROCS = 2
	noVersion.GoVersion = ""
	for _, tc := range []struct {
		name string
		a, b Stamp
		want string
	}{
		{"cpu", testStamp, otherCPU, `not comparable: cpu "AMD EPYC 7B13" vs "Intel(R) Xeon(R) Processor"`},
		{"gomaxprocs", testStamp, otherProcs, `not comparable: gomaxprocs "8" vs "2"`},
		{"missing on the candidate", testStamp, noVersion, `not comparable: go_version "go1.22.0" vs ""`},
		{"missing on both", Stamp{}, Stamp{}, `not comparable: goos "" vs ""`},
	} {
		// The candidate is 3x slower: a comparable pair would fail on ns/op.
		a := &BenchSet{Stamp: tc.a, Results: results(100)}
		b := &BenchSet{Stamp: tc.b, Results: results(300)}
		if v := GateBench(a, b, 0.5, 1.10); len(v) != 1 || v[0] != tc.want {
			t.Errorf("%s: GateBench = %q, want [%q]", tc.name, v, tc.want)
		}
		if out := RenderBenchDiff(a, b); out != tc.want+"\n" {
			t.Errorf("%s: RenderBenchDiff = %q, want only the not-comparable line", tc.name, out)
		}
	}
	// Equal complete stamps gate on the deltas as before.
	a := &BenchSet{Stamp: testStamp, Results: results(100)}
	b := &BenchSet{Stamp: testStamp, Results: results(300)}
	if v := GateBench(a, b, 0.5, 1.10); len(v) != 1 || !strings.Contains(v[0], "BenchmarkX regressed") {
		t.Fatalf("equal stamps: want the ns/op regression, got %v", v)
	}
	if v := GateBench(a, a, 0.5, 1.10); len(v) != 0 {
		t.Fatalf("equal stamps, identical sets: want pass, got %v", v)
	}
}
