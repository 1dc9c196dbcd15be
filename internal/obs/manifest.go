package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Manifest is the machine-readable provenance record of one instrumented
// run: what was configured, how long every stage took (wall and CPU), and
// the final metric values. BENCH entries and regression comparisons should
// cite a manifest rather than ad-hoc log lines.
type Manifest struct {
	// Tool names the binary or harness that produced the run.
	Tool string `json:"tool"`
	// CreatedAt is the RFC3339 completion instant; empty in golden tests.
	CreatedAt string `json:"created_at,omitempty"`
	// Meta carries flat configuration facts (seed, scale, flags).
	Meta map[string]string `json:"meta,omitempty"`
	// Stages is the run's span tree, one root per pipeline stage.
	Stages []SpanRecord `json:"stages"`
	// Metrics is the registry snapshot at completion.
	Metrics Snapshot `json:"metrics"`
	// Degradations records what the run survived rather than aborted on —
	// retried probes, dropped feed records, opened breakers. Empty for a
	// clean run; a resilient run is only trustworthy if it also says
	// exactly how degraded it was.
	Degradations []Degradation `json:"degradations,omitempty"`
}

// Degradation is one class of absorbed failure within one pipeline stage:
// Count occurrences of Kind (e.g. "conn-retries", "dropped-records")
// during Stage ("probe", "identify", ...).
type Degradation struct {
	Stage string `json:"stage"`
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// BuildManifest assembles a manifest from a finished trace and registry,
// stamping the current time. Either may be nil.
func BuildManifest(tool string, tr *Trace, reg *Registry, meta map[string]string) *Manifest {
	return &Manifest{
		Tool:      tool,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Meta:      meta,
		Stages:    tr.Records(),
		Metrics:   reg.Snapshot(),
	}
}

// MarshalIndent renders the manifest as indented JSON with a trailing
// newline. Map keys sort, so output is deterministic for fixed contents.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile serialises the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return nil
}

// StageSeconds flattens the manifest's root stages to name → wall seconds,
// a convenience for overhead assertions in tests and benchmarks.
func (m *Manifest) StageSeconds() map[string]float64 {
	out := make(map[string]float64, len(m.Stages))
	for _, s := range m.Stages {
		out[s.Name] = time.Duration(s.WallNS).Seconds()
	}
	return out
}

// StageTiming is one span flattened out of a trace tree: Path is the
// slash-joined span path ("classify/c2-sweep"), so depth and ancestry
// survive flattening. This is the machine-comparable row the run archive
// stores and the regression differ consumes.
type StageTiming struct {
	Path   string `json:"path"`
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	Err    string `json:"err,omitempty"`
}

// FlattenStages walks a span tree depth-first into StageTiming rows, parents
// before children, siblings in start order (the order Records returns).
func FlattenStages(recs []SpanRecord) []StageTiming {
	var out []StageTiming
	var walk func(prefix string, r SpanRecord)
	walk = func(prefix string, r SpanRecord) {
		path := r.Name
		if prefix != "" {
			path = prefix + "/" + r.Name
		}
		out = append(out, StageTiming{Path: path, WallNS: r.WallNS, CPUNS: r.CPUNS, Err: r.Err})
		for _, c := range r.Children {
			walk(path, c)
		}
	}
	for _, r := range recs {
		walk("", r)
	}
	return out
}
