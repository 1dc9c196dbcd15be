package timeline

import (
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
)

// healthEvery is the observer's tick period when sampling is off, and the
// densest spacing of the health monitor's snapshot ring at any interval.
const healthEvery = 500 * time.Millisecond

// readResources takes the tick's runtime reading; tests swap in a fixed one
// so whole windows, gauges included, can be compared byte for byte.
var readResources = obs.ReadResources

// Options configures an Observer.
type Options struct {
	// Interval is the sampling period. Every tick evaluates the health
	// rules, takes one resource reading, and closes one timeline window.
	// Zero keeps only the health job, ticking every 500ms.
	Interval time.Duration
	// Clock defaults to Wall().
	Clock Clock
	// Rules are the health rules; Events receives health and resource
	// events.
	Rules  []health.Rule
	Events *obs.EventLog
	// Stream receives every closed window; nil selects a private one when
	// Interval is set. Stop closes it.
	Stream *Stream
}

// Report is what an observer collected over a run.
type Report struct {
	Windows   []Window
	Resources []obs.ResourceStats
	Health    []health.Result
}

// Observer is a run's one sampling loop. Each tick takes one registry
// snapshot, plus one resource reading when sampling is on, and that one
// sample feeds the health rules, the per-stage resource marks, and the
// timeline window the tick closes. A health firing is attributed to that
// same window.
type Observer struct {
	reg      *obs.Registry
	elog     *obs.EventLog
	clock    Clock
	interval time.Duration
	period   time.Duration // tick period: interval, or healthEvery when off
	stride   int           // ticks between snapshots kept in the health ring

	mu      sync.Mutex
	health  *health.Monitor
	res     *obs.ResourceSampler // nil when sampling is off
	stream  *Stream              // nil when sampling is off and none was given
	det     *detector
	start   time.Time
	prev    obs.Snapshot
	lastEnd int64 // EndUS of the last closed window
	windows int64 // windows closed so far
	ticks   int
	stage   string
	stages  []string // stages entered since the last window closed
	stopped bool
	report  Report

	stop chan struct{}
	done chan struct{}
}

// NewObserver builds an observer over reg.
func NewObserver(reg *obs.Registry, opts Options) *Observer {
	if opts.Clock == nil {
		opts.Clock = Wall()
	}
	period := healthEvery
	if opts.Interval > 0 {
		period = opts.Interval
	}
	o := &Observer{
		reg:      reg,
		elog:     opts.Events,
		clock:    opts.Clock,
		interval: opts.Interval,
		period:   period,
		stride:   int((healthEvery + period - 1) / period),
		health:   health.NewMonitor(opts.Events, opts.Rules),
		det:      newDetector(DefaultWatch()),
	}
	o.stream = opts.Stream
	if o.stream == nil && opts.Interval > 0 {
		o.stream = NewStream()
	}
	return o
}

// Start takes the baseline sample every later delta is measured from and
// launches the sampling goroutine. Stop ends it.
func (o *Observer) Start() {
	o.mu.Lock()
	o.start = o.clock.Now()
	o.prev = o.reg.Snapshot()
	o.health.Observe(o.start, o.prev, true, -1)
	if o.interval > 0 {
		o.res = obs.NewResourceSampler(o.reg, o.elog, readResources(), o.start)
	}
	o.mu.Unlock()
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	// The ticker exists before the goroutine launches, so a fake clock
	// advanced right after Start already has it registered.
	t := o.clock.NewTicker(o.period)
	go func() {
		defer close(o.done)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case at := <-t.Chan():
				o.tick(at, false)
			}
		}
	}()
}

// SetStage names the run stage subsequent samples belong to. Each distinct
// stage entered during a window is annotated on it.
func (o *Observer) SetStage(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stage = name
	if n := len(o.stages); n == 0 || o.stages[n-1] != name {
		o.stages = append(o.stages, name)
	}
}

// Stop halts the sampling goroutine, takes the final sample — which also
// evaluates the health rules over the whole run and closes the tail window
// — and returns everything collected. Safe to call more than once.
func (o *Observer) Stop() Report {
	if o.stop != nil {
		close(o.stop)
		<-o.done
		o.stop = nil
	}
	o.tick(o.clock.Now(), true)
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.report
}

// tick is the observer's one sample: a registry snapshot (and resource
// reading) at now, fed to health, resources, and the window it closes.
func (o *Observer) tick(now time.Time, final bool) {
	snap := o.reg.Snapshot()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return
	}
	o.ticks++
	window := int64(-1)
	if o.interval > 0 {
		window = o.windows
	}
	fired := o.health.Observe(now, snap, o.ticks%o.stride == 0, window)
	if final {
		var first []health.Result
		o.report.Health, first = o.health.Finalize(snap, window)
		fired = append(fired, first...)
	}
	if o.interval > 0 {
		peaks := o.res.Sample(now, o.stage, readResources())
		o.closeWindow(now, snap, fired, &peaks)
	}
	if final {
		o.stopped = true
		o.report.Resources = o.res.Stats()
		o.report.Windows = o.stream.Windows()
		o.stream.close()
	}
}

// closeWindow records the window ending at now. Callers hold o.mu.
func (o *Observer) closeWindow(now time.Time, snap obs.Snapshot, fired []health.Result, peaks *obs.ResourcePeaks) {
	delta := obs.DeltaSnapshot(o.prev, snap)
	w := Window{
		Index:     o.windows,
		StartUS:   o.lastEnd,
		EndUS:     now.Sub(o.start).Microseconds(),
		Stage:     o.stage,
		Stages:    o.stages,
		Resources: peaks,
	}
	o.stages = nil
	for _, f := range fired {
		w.Breaches = append(w.Breaches, Breach{Rule: f.Rule, Group: f.Group, Value: f.Value, Max: f.Max})
	}
	for name, v := range delta.Counters {
		if v != 0 {
			if w.Counters == nil {
				w.Counters = make(map[string]int64)
			}
			w.Counters[name] = v
		}
	}
	if len(snap.Gauges) > 0 {
		w.Gauges = snap.Gauges
	}
	for name, vec := range delta.CounterVecs {
		for key, v := range vec.Series {
			if v != 0 {
				if w.Series == nil {
					w.Series = make(map[string]int64)
				}
				w.Series[name+"{"+key+"}"] = v
			}
		}
	}
	addHist := func(name string, h obs.HistogramSnapshot) {
		if h.Count == 0 {
			return
		}
		if w.Hists == nil {
			w.Hists = make(map[string]HistWindow)
		}
		w.Hists[name] = HistWindow{Count: h.Count, P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99)}
	}
	for name, h := range delta.Histograms {
		addHist(name, h)
	}
	for name, vec := range delta.HistogramVecs {
		for key, h := range vec.Series {
			addHist(name+"{"+key+"}", h)
		}
	}
	w.Anomalies = o.det.observe(snap, delta)
	o.prev = snap
	o.lastEnd = w.EndUS
	o.windows++
	o.stream.publish(w)
}

// Stream is a run's window sequence as it grows: the observer publishes
// each closed window, and the /dash endpoints replay and follow it. A nil
// *Stream is the disabled timeline.
type Stream struct {
	mu      sync.Mutex
	windows []Window
	subs    map[int]chan Window
	nextSub int
	closed  bool
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{subs: make(map[int]chan Window)} }

// Windows returns a copy of the windows published so far.
func (s *Stream) Windows() []Window {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Window(nil), s.windows...)
}

// Subscribe returns a channel receiving every window published after the
// call, and a cancel function. The channel is buffered; a slow consumer
// loses windows rather than stalling the observer. The channel closes when
// the run ends or on cancel.
func (s *Stream) Subscribe(buf int) (<-chan Window, func()) {
	if s == nil {
		ch := make(chan Window)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ch := make(chan Window)
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	ch := make(chan Window, buf)
	s.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			close(c)
			delete(s.subs, id)
		}
	}
	return ch, cancel
}

func (s *Stream) publish(w Window) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows = append(s.windows, w)
	for _, ch := range s.subs {
		select {
		case ch <- w:
		default: // slow consumer: drop rather than stall the observer
		}
	}
}

// close ends every subscription; later Subscribe calls get a closed
// channel.
func (s *Stream) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for id, ch := range s.subs {
		close(ch)
		delete(s.subs, id)
	}
}
