// Package timeline holds the run's one sampling loop, the Observer: on a
// pluggable clock it snapshots the observability registry once per tick and
// feeds that one sample to the SLO health rules (internal/health), to the
// per-stage resource marks (obs.ResourceSampler), and to the windowed
// telemetry stream — one Window per tick, with counters and vector series
// as per-window deltas (obs.DeltaSnapshot), histograms as per-window
// quantiles, gauges as last-value, plus the stages entered, the health
// breaches the tick fired, the tick's resource reading, and
// seeded-deterministic anomaly annotations over an error-class watchlist.
//
// The window sequence is machine-varying (wall-clock windows slice the run
// differently on every machine), so it lands in the run archive's timings
// half as timeline.jsonl and never feeds a run ID or a golden fingerprint.
// The deterministic *fields* of each window — index, stage annotations,
// anomaly flags — depend only on the capture schedule and the metric deltas,
// which is what the fake-clock tests pin down.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// Window is one record of the timeline: everything that happened between
// two consecutive captures.
type Window struct {
	Index   int64 `json:"index"`
	StartUS int64 `json:"start_us"` // window open, µs since observer start
	EndUS   int64 `json:"end_us"`   // window close, µs since observer start
	// Stage is the run stage current when the window closed; Stages lists
	// every stage entered during the window (so short stages inside one
	// window are still visible).
	Stage  string   `json:"stage,omitempty"`
	Stages []string `json:"stages,omitempty"`
	// Counters holds per-window deltas of plain counters (nonzero only);
	// Series the same for vector series, keyed "metric{v1|v2}"; Gauges the
	// last reading of each gauge; Hists per-window histogram windows.
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Series   map[string]int64      `json:"series,omitempty"`
	Hists    map[string]HistWindow `json:"hists,omitempty"`
	// Breaches are the health-rule firings of the tick that closed the
	// window; Resources that tick's process reading; Anomalies the
	// watchlist annotations (sorted by series).
	Breaches  []Breach           `json:"breaches,omitempty"`
	Resources *obs.ResourcePeaks `json:"resources,omitempty"`
	Anomalies []Anomaly          `json:"anomalies,omitempty"`
}

// HistWindow summarizes one histogram's observations within one window.
type HistWindow struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Breach is a health-rule firing attributed to the window whose closing
// tick fired it.
type Breach struct {
	Rule  string  `json:"rule"`
	Group string  `json:"group,omitempty"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// AnomalyCount sums the anomaly annotations across a window sequence.
func AnomalyCount(ws []Window) int {
	n := 0
	for _, w := range ws {
		n += len(w.Anomalies)
	}
	return n
}

// WriteJSONL writes one window per line — the timeline.jsonl format.
func WriteJSONL(w io.Writer, ws []Window) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, win := range ws {
		if err := enc.Encode(win); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a timeline.jsonl stream, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Window, error) {
	var ws []Window
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var w Window
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("timeline: line %d: %w", len(ws)+1, err)
		}
		ws = append(ws, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ws, nil
}
