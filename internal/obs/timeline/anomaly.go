package timeline

import (
	"math"
	"sort"

	"repro/internal/obs"
)

// Anomaly marks one watched series as behaving unusually inside one window.
// Two kinds exist:
//
//   - "activation": an error-class series that had never counted anything
//     went positive. Watched metrics are watched precisely because a clean
//     run keeps them at zero, so the first nonzero window is itself the
//     signal — no baseline required.
//   - "drift": the series' per-window delta escaped an exponentially
//     weighted mean/variance band (|z| > 3 after a 4-window warmup, with an
//     absolute slack so near-zero variance doesn't flag ±1 jitter).
//
// Detection state is a pure function of the window-delta sequence, so a
// fixed capture schedule yields identical anomalies regardless of how many
// goroutines produced the underlying counts.
type Anomaly struct {
	Series string  `json:"series"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	Mean   float64 `json:"mean,omitempty"`
	Sigma  float64 `json:"sigma,omitempty"`
	Score  float64 `json:"score,omitempty"`
}

// DefaultWatch is the error-class watchlist: metrics that are provably zero
// on a clean (chaos-none) run, so any activity is injected degradation or a
// real defect. Vector metrics are watched per labeled series.
func DefaultWatch() []string {
	return []string{
		"fault_dns_injected_total",
		"fault_resets_injected_total",
		"fault_flaps_injected_total",
		"fault_truncations_injected_total",
		"fault_latency_injected_total",
		"fault_corrupt_records_total",
		"fault_breaker_opens_total",
		"fault_breaker_short_circuits_total",
	}
}

const (
	ewmaAlpha   = 0.3 // weight of the newest window in the running moments
	driftZ      = 3.0 // z-score beyond which a delta is drift
	driftWarmup = 4   // windows of history before drift can fire
	driftSlack  = 2.0 // absolute headroom so tiny-variance series don't flag ±1
)

// detector holds per-series EWMA state across windows. Not safe for
// concurrent use; the observer calls it under its own lock.
type detector struct {
	watch  map[string]bool
	series map[string]*seriesState
}

type seriesState struct {
	active bool // cumulative total has been positive in a past window
	n      int64
	mean   float64
	vari   float64
}

func newDetector(watch []string) *detector {
	d := &detector{watch: make(map[string]bool, len(watch)), series: make(map[string]*seriesState)}
	for _, name := range watch {
		d.watch[name] = true
	}
	return d
}

// observe scans one window's cumulative snapshot + delta for the watched
// series and returns the window's anomalies sorted by series name.
func (d *detector) observe(cum, delta obs.Snapshot) []Anomaly {
	var out []Anomaly
	emit := func(series string, cumVal, deltaVal int64) {
		if a, ok := d.observeSeries(series, cumVal, deltaVal); ok {
			out = append(out, a)
		}
	}
	for name := range d.watch {
		if v, ok := cum.Counters[name]; ok {
			emit(name, v, delta.Counters[name])
		}
		if vec, ok := cum.CounterVecs[name]; ok {
			dvec := delta.CounterVecs[name]
			for key, v := range vec.Series {
				emit(name+"{"+key+"}", v, dvec.Series[key])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

func (d *detector) observeSeries(series string, cumVal, deltaVal int64) (Anomaly, bool) {
	st := d.series[series]
	if st == nil {
		st = &seriesState{}
		d.series[series] = st
	}
	v := float64(deltaVal)
	if !st.active && cumVal > 0 {
		st.active = true
		// Activation replaces drift for this window: the series just came
		// alive, so its history is all zeros and the EWMA is meaningless.
		d.update(st, v)
		return Anomaly{Series: series, Kind: "activation", Value: v}, true
	}
	var a Anomaly
	fired := false
	if st.n >= driftWarmup {
		sigma := math.Sqrt(st.vari)
		if dev := v - st.mean; dev > driftZ*sigma+driftSlack {
			score := dev / (sigma + 1e-9)
			a = Anomaly{Series: series, Kind: "drift", Value: v, Mean: st.mean, Sigma: sigma, Score: score}
			fired = true
		}
	}
	d.update(st, v)
	return a, fired
}

// update folds one window delta into the EWMA mean/variance (West's
// exponentially weighted form).
func (d *detector) update(st *seriesState, v float64) {
	st.n++
	if st.n == 1 {
		st.mean = v
		st.vari = 0
		return
	}
	diff := v - st.mean
	incr := ewmaAlpha * diff
	st.mean += incr
	st.vari = (1 - ewmaAlpha) * (st.vari + diff*incr)
}
