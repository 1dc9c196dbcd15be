// Package obs is the pipeline's observability layer: a concurrent-safe
// metrics registry (counters, gauges, fixed-bucket histograms), a span/trace
// API for per-stage timing with process-CPU attribution, a JSON+pprof
// introspection endpoint, and the structured event log of every
// instrumented run, with its Chrome trace rendering.
//
// The package depends only on the standard library and is designed so that
// instrumentation can be compiled into the hot substrates unconditionally:
// every metric method is safe on a nil receiver and a nil *Registry hands
// out nil metrics, so an un-instrumented Prober or Scanner pays one nil
// check per event and nothing more.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value (in-flight requests, queue depth).
// The zero value is ready to use; all methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets covers sub-millisecond substrate calls up to the probe
// timeout ceiling, in seconds.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts float64 observations into fixed buckets. Buckets are
// upper bounds in ascending order; observations above the last bound land in
// an implicit +Inf bucket. Updates are lock-free; all methods are no-ops on
// a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds;
// nil bounds selects DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot returns a consistent-enough copy for reporting. Individual bucket
// loads are atomic; the snapshot as a whole is advisory, as with any live
// metrics endpoint.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Overflow = s.Counts[len(s.Counts)-1]
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Overflow repeats
// the +Inf bucket's count so consumers of the serialised form can tell when
// a quantile estimate was clamped to the last finite bound without
// re-deriving it from Counts.
type HistogramSnapshot struct {
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"` // len(Bounds)+1; last bucket is +Inf
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
	Overflow int64     `json:"overflow,omitempty"` // samples above the last finite bound
}

// Mean returns the average observation, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the standard fixed-bucket
// estimate. Samples in the +Inf bucket report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	v, _ := s.QuantileClamped(q)
	return v
}

// QuantileClamped is Quantile plus a flag reporting whether the target rank
// landed in the +Inf overflow bucket — i.e. the returned value is the last
// finite bound, a floor on the true quantile rather than an estimate of it.
// Regression tooling should treat clamped quantiles as lower bounds.
func (s HistogramSnapshot) QuantileClamped(q float64) (float64, bool) {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(s.Bounds) { // +Inf bucket
				return s.Bounds[len(s.Bounds)-1], true
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - seen) / float64(c)
			return lo + (hi-lo)*frac, false
		}
		seen += float64(c)
	}
	return s.Bounds[len(s.Bounds)-1], true
}

// Registry hands out named metrics, get-or-create, and snapshots them. It is
// safe for concurrent use. A nil *Registry is a valid no-op registry: it
// returns nil metrics whose methods do nothing, so substrates can be
// instrumented unconditionally.
type Registry struct {
	mu            sync.Mutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	counterVecs   map[string]*CounterVec
	gaugeVecs     map[string]*GaugeVec
	histogramVecs map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		counterVecs:   make(map[string]*CounterVec),
		gaugeVecs:     make(map[string]*GaugeVec),
		histogramVecs: make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (nil bounds selects DefLatencyBuckets). Later callers get the
// existing histogram regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// counterLocked is Counter for callers already holding r.mu.
func (r *Registry) counterLocked(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterVec returns the named counter vector with the given label schema,
// creating it on first use. Later callers get the existing vector
// regardless of the labels they pass; the schema is fixed at creation.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.counterVecs[name]
	if v == nil {
		v = &CounterVec{core: newVecCore(name, labels, r.counterLocked(DroppedSeriesMetric), func() *Counter { return &Counter{} })}
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named gauge vector, creating it on first use.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.gaugeVecs[name]
	if v == nil {
		v = &GaugeVec{core: newVecCore(name, labels, r.counterLocked(DroppedSeriesMetric), func() *Gauge { return &Gauge{} })}
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram vector, creating it on first use
// with the given bounds shared by every series (nil bounds selects
// DefLatencyBuckets). Later callers get the existing vector regardless of
// the bounds or labels they pass.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.histogramVecs[name]
	if v == nil {
		v = &HistogramVec{core: newVecCore(name, labels, r.counterLocked(DroppedSeriesMetric), func() *Histogram { return NewHistogram(bounds) })}
		r.histogramVecs[name] = v
	}
	return v
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	// Vector maps stay nil when no vectors exist, so registries that never
	// use labels serialise exactly as before this layer existed.
	if len(r.counterVecs) > 0 {
		s.CounterVecs = make(map[string]VecSnapshot, len(r.counterVecs))
		for name, v := range r.counterVecs {
			s.CounterVecs[name] = v.Snapshot()
		}
	}
	if len(r.gaugeVecs) > 0 {
		s.GaugeVecs = make(map[string]VecSnapshot, len(r.gaugeVecs))
		for name, v := range r.gaugeVecs {
			s.GaugeVecs[name] = v.Snapshot()
		}
	}
	if len(r.histogramVecs) > 0 {
		s.HistogramVecs = make(map[string]HistVecSnapshot, len(r.histogramVecs))
		for name, v := range r.histogramVecs {
			s.HistogramVecs[name] = v.Snapshot()
		}
	}
	return s
}

// WriteJSON renders the registry as indented JSON (map keys sort, so output
// is deterministic for a fixed state), expvar-style.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Snapshot is a point-in-time copy of a whole registry. The vector maps are
// nil for registries without labeled metrics.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	CounterVecs   map[string]VecSnapshot       `json:"counter_vecs,omitempty"`
	GaugeVecs     map[string]VecSnapshot       `json:"gauge_vecs,omitempty"`
	HistogramVecs map[string]HistVecSnapshot   `json:"histogram_vecs,omitempty"`
}
