package runs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one `go test -bench` result line in structured form. With
// -count=N the same benchmark appears N times; every repetition is kept so
// downstream tooling can compute its own spread.
type BenchResult struct {
	// Name is the full benchmark name including the -GOMAXPROCS suffix
	// (e.g. "BenchmarkEmitPDNS/workers=4-8"); Base strips the suffix.
	Name        string             `json:"name"`
	Base        string             `json:"base"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Stamp says where a bench capture was taken. Two captures are comparable
// only when their stamps are complete and equal: a delta across CPUs, core
// counts or toolchains measures the machine, not the code.
type Stamp struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the -N suffix go test appends to every result name (no
	// suffix means 1); 0 when unknown or when the results disagree.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// GoVersion is runtime.Version() of the process that parsed the capture,
	// which `make bench-json` builds with the toolchain that ran the benchmarks.
	GoVersion string `json:"go_version,omitempty"`
}

// Mismatch returns "" when s and o are complete and equal, otherwise
// "not comparable: <field> <s's value> vs <o's value>" for the first field
// that differs or is missing on either side.
func (s Stamp) Mismatch(o Stamp) string {
	procs := func(n int) string {
		if n <= 0 {
			return ""
		}
		return strconv.Itoa(n)
	}
	for _, f := range []struct{ name, a, b string }{
		{"goos", s.Goos, o.Goos},
		{"goarch", s.Goarch, o.Goarch},
		{"cpu", s.CPU, o.CPU},
		{"gomaxprocs", procs(s.GOMAXPROCS), procs(o.GOMAXPROCS)},
		{"go_version", s.GoVersion, o.GoVersion},
	} {
		if f.a == "" || f.b == "" || f.a != f.b {
			return fmt.Sprintf("not comparable: %s %q vs %q", f.name, f.a, f.b)
		}
	}
	return ""
}

// BenchSet is the structured form of one `go test -bench` invocation — what
// BENCH_pipeline.json holds instead of raw benchmark text.
type BenchSet struct {
	Stamp
	Results []BenchResult `json:"results"`
}

// ParseBench reads `go test -bench` text output (benchstat's input format)
// into a BenchSet. Non-benchmark lines (PASS, ok, test log noise) are
// skipped; a stream with no benchmark lines at all is an error, catching
// the easy mistake of feeding it a failed test run. The stamp's goos, goarch,
// cpu and GOMAXPROCS come from the text; GoVersion is left to the caller.
func ParseBench(r io.Reader) (*BenchSet, error) {
	set := &BenchSet{}
	pkg := ""
	procs := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			set.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			set.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			set.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		res.Pkg = pkg
		set.Results = append(set.Results, res)
		switch _, n := splitProcs(res.Name); {
		case procs == -1:
			procs = n
		case procs != n:
			procs = 0
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runs: bench parse: %w", err)
	}
	if len(set.Results) == 0 {
		return nil, fmt.Errorf("runs: bench parse: no benchmark result lines found")
	}
	set.GOMAXPROCS = procs
	return set, nil
}

// parseBenchLine parses one "BenchmarkName-8  N  V unit  V unit ..." line.
func parseBenchLine(line string) (BenchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return BenchResult{}, false
	}
	f := strings.Fields(line)
	// Name, iterations, and at least one value+unit pair.
	if len(f) < 4 || len(f)%2 != 0 {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	base, _ := splitProcs(f[0])
	res := BenchResult{Name: f[0], Base: base, Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[f[i+1]] = v
		}
	}
	if !sawNs {
		return BenchResult{}, false
	}
	return res, true
}

// splitProcs splits the trailing -GOMAXPROCS suffix go test appends off a
// result name, so repeats of the same benchmark group together. A name
// without the suffix ran at GOMAXPROCS 1.
func splitProcs(name string) (base string, procs int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}

// WriteJSON renders the set as indented JSON with a trailing newline.
func (s *BenchSet) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("runs: bench: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("runs: bench: %w", err)
	}
	return nil
}

// ReadBenchJSON loads a BenchSet previously written by WriteJSON.
func ReadBenchJSON(r io.Reader) (*BenchSet, error) {
	var s BenchSet
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("runs: bench json: %w", err)
	}
	return &s, nil
}

// BenchDelta compares one benchmark's mean ns/op and allocs/op across two
// sets. Alloc fields are zero when the run did not report -benchmem output.
type BenchDelta struct {
	Name    string  `json:"name"`
	ANs     float64 `json:"a_ns,omitempty"`
	BNs     float64 `json:"b_ns,omitempty"`
	AAllocs float64 `json:"a_allocs,omitempty"`
	BAllocs float64 `json:"b_allocs,omitempty"`
}

// Ratio returns B as a multiple of A, or 0 when either side is missing.
func (d BenchDelta) Ratio() float64 {
	if d.ANs <= 0 || d.BNs <= 0 {
		return 0
	}
	return d.BNs / d.ANs
}

// AllocRatio returns B's allocs/op as a multiple of A's, or 0 when either
// side has no alloc data (missing benchmark or run without -benchmem).
func (d BenchDelta) AllocRatio() float64 {
	if d.AAllocs <= 0 || d.BAllocs <= 0 {
		return 0
	}
	return d.BAllocs / d.AAllocs
}

// DiffBench compares mean ns/op and allocs/op per benchmark, sorted by name.
func DiffBench(a, b *BenchSet) []BenchDelta {
	ma, mb := a.MeanPoints(), b.MeanPoints()
	var out []BenchDelta
	for _, name := range unionKeys(ma, mb) {
		out = append(out, BenchDelta{
			Name: name,
			ANs:  ma[name].NsPerOp, BNs: mb[name].NsPerOp,
			AAllocs: ma[name].AllocsPerOp, BAllocs: mb[name].AllocsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GateBench returns a single "not comparable" violation when the two
// captures' stamps differ or either is incomplete (see Stamp.Mismatch).
// Otherwise it returns one violation per benchmark whose mean ns/op grew past
// (1+tol)× the baseline, or whose mean allocs/op grew past allocsTol× it
// (allocsTol is a plain ratio ceiling, e.g. 1.10; <= 0 disables the alloc
// check). The alloc gate only fires when both sides report allocs — a run
// without -benchmem must not trip it. Benchmarks present on only one side
// are reported but do not fail the gate — suites evolve.
func GateBench(a, b *BenchSet, tol, allocsTol float64) []string {
	if why := a.Mismatch(b.Stamp); why != "" {
		return []string{why}
	}
	var v []string
	for _, d := range DiffBench(a, b) {
		if r := d.Ratio(); r > 1+tol {
			v = append(v, fmt.Sprintf("bench %s regressed: %.0f ns/op -> %.0f ns/op (%.2fx, tol %.2fx)",
				d.Name, d.ANs, d.BNs, r, 1+tol))
		}
		if allocsTol <= 0 {
			continue
		}
		if r := d.AllocRatio(); r > allocsTol {
			v = append(v, fmt.Sprintf("bench %s alloc regression: %.1f allocs/op -> %.1f allocs/op (%.2fx, tol %.2fx)",
				d.Name, d.AAllocs, d.BAllocs, r, allocsTol))
		}
	}
	return v
}

// RenderBenchDiff formats a bench comparison for humans: the per-benchmark
// deltas, or only the "not comparable" line when the stamps do not match.
func RenderBenchDiff(a, c *BenchSet) string {
	if why := a.Mismatch(c.Stamp); why != "" {
		return why + "\n"
	}
	var b strings.Builder
	b.WriteString("Benchmark diff (mean ns/op and allocs/op over repeats)\n")
	for _, d := range DiffBench(a, c) {
		ratio := "-"
		if r := d.Ratio(); r > 0 {
			ratio = fmt.Sprintf("%.2fx", r)
		}
		alloc := ""
		if r := d.AllocRatio(); r > 0 {
			alloc = fmt.Sprintf("  %.0f -> %.0f allocs/op (%.2fx)", d.AAllocs, d.BAllocs, r)
		}
		fmt.Fprintf(&b, "  %-50s %14.0f %14.0f  %s%s\n", d.Name, d.ANs, d.BNs, ratio, alloc)
	}
	return b.String()
}
