package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// driveRun pushes a fixed per-phase workload into reg from `workers`
// goroutines, closing one window per phase. Barriers between phases make the
// cumulative totals at each capture instant worker-count-invariant, which is
// exactly the situation the recorder promises determinism for.
func driveRun(t *testing.T, workers int) []Window {
	t.Helper()
	reg := obs.NewRegistry()
	clock := NewFakeClock(t0)
	st := NewStream()
	o := NewObserver(reg, Options{Interval: time.Second, Clock: clock, Stream: st})
	o.Start()

	// Phase 0: clean ingest. Phase 1: clean probe. Phase 2: faults appear
	// (activation). Phase 3: fault burst (drift material for later phases).
	phases := []struct {
		stage  string
		clean  int64
		faults int64
	}{
		{"ingest", 300, 0},
		{"probe", 300, 0},
		{"probe", 300, 6},
		{"probe", 300, 60},
	}
	for _, ph := range phases {
		o.SetStage(ph.stage)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Split the phase's fixed totals across workers; the sums
				// at the barrier are identical for any worker count.
				for i := int64(w); i < ph.clean; i += int64(workers) {
					reg.Counter("pdns_records_total").Inc()
					reg.CounterVec("probe_outcomes_total", "provider", "outcome").With("aws", "ok").Inc()
				}
				for i := int64(w); i < ph.faults; i += int64(workers) {
					reg.Counter("fault_resets_injected_total").Inc()
				}
			}(w)
		}
		wg.Wait()
		want := len(st.Windows()) + 1
		clock.Advance(time.Second)
		waitWindows(t, st, want)
	}
	return o.Stop().Windows
}

// waitWindows blocks until the stream has at least n windows; the fake
// clock delivers ticks synchronously but the sample itself runs on the
// observer goroutine.
func waitWindows(t *testing.T, st *Stream, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(st.Windows()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d windows (have %d)", n, len(st.Windows()))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// deterministic projects a window onto its worker-invariant fields.
type deterministic struct {
	Index     int64
	Stage     string
	Stages    []string
	Counters  map[string]int64
	Series    map[string]int64
	Anomalies []Anomaly
}

func project(ws []Window) []deterministic {
	out := make([]deterministic, len(ws))
	for i, w := range ws {
		out[i] = deterministic{
			Index: w.Index, Stage: w.Stage, Stages: w.Stages,
			Counters: w.Counters, Series: w.Series, Anomalies: w.Anomalies,
		}
	}
	return out
}

// TestWorkerInvariantWindows: with a fixed fake-clock capture schedule,
// workers 1/2/8 produce identical window sequences for the deterministic
// fields — window index, stage annotations, counter/series deltas, anomaly
// flags.
func TestWorkerInvariantWindows(t *testing.T) {
	base := project(driveRun(t, 1))
	for _, workers := range []int{2, 8} {
		got := project(driveRun(t, workers))
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d window sequence diverged:\n 1: %+v\n%2d: %+v", workers, base, workers, got)
		}
	}
	// And the sequence itself is what the drive implies: window 2 carries
	// the fault activation, clean windows carry none.
	if len(base[0].Anomalies) != 0 || len(base[1].Anomalies) != 0 {
		t.Fatalf("clean windows carry anomalies: %+v / %+v", base[0].Anomalies, base[1].Anomalies)
	}
	w2 := base[2]
	if len(w2.Anomalies) != 1 || w2.Anomalies[0].Kind != "activation" || w2.Anomalies[0].Series != "fault_resets_injected_total" {
		t.Fatalf("window 2 anomalies = %+v, want one fault activation", w2.Anomalies)
	}
	if w2.Counters["fault_resets_injected_total"] != 6 {
		t.Fatalf("window 2 fault delta = %d, want 6", w2.Counters["fault_resets_injected_total"])
	}
	if got := base[0].Stages; len(got) != 1 || got[0] != "ingest" {
		t.Fatalf("window 0 stages = %v, want [ingest]", got)
	}
}

// fakeResources swaps the observer's runtime reading for a scripted one —
// every call allocates another step bytes — so whole windows, proc_*
// gauges included, repeat byte for byte.
func fakeResources(t *testing.T, step uint64) {
	t.Helper()
	var n uint64
	orig := readResources
	readResources = func() obs.ResourceReading {
		var r obs.ResourceReading
		r.Mem.TotalAlloc = n * step
		r.Mem.HeapInuse = 4<<20 + n*step
		r.Goroutines = 10
		n++
		return r
	}
	t.Cleanup(func() { readResources = orig })
}

// scriptedHealthRun drives an observer through a fixed schedule of registry
// deltas on a fake clock, one 250ms window per phase, and returns what it
// recorded plus the health events it logged.
func scriptedHealthRun(t *testing.T) (Report, []obs.Event) {
	t.Helper()
	fakeResources(t, 1<<20)
	reg := obs.NewRegistry()
	elog := obs.NewEventLog()
	clock := NewFakeClock(t0)
	st := NewStream()
	o := NewObserver(reg, Options{
		Interval: 250 * time.Millisecond, Clock: clock, Stream: st, Events: elog,
		Rules: []health.Rule{
			{Name: "resets", Metric: "fault_resets_injected_total", Max: 0},
			{Name: "conn-rate", Metric: "probe_outcomes_total", Match: map[string]string{"outcome": "conn"},
				Per: "provider", Den: "probe_outcomes_total", Max: 0.02, MinSamples: 50},
			{Name: "feed-drop-rate", Metric: "pdns_records_dropped_total", Den: "pdns_records_scanned_total",
				Max: 0.001, MinSamples: 1000},
		},
	})
	o.Start()
	outcomes := reg.CounterVec("probe_outcomes_total", "provider", "outcome")
	phases := []func(){
		func() { outcomes.With("aws", "ok").Add(300) },
		func() { outcomes.With("aws", "ok").Add(300) },
		func() { reg.Counter("fault_resets_injected_total").Add(6) },                         // resets fires in window 2
		func() { outcomes.With("gcp", "ok").Add(100); outcomes.With("gcp", "conn").Add(10) }, // conn-rate/gcp in 3
		func() { outcomes.With("aws", "conn").Add(1) },                                       // under every bound: no firing in 4
	}
	for i, phase := range phases {
		o.SetStage(fmt.Sprintf("phase-%d", i))
		phase()
		clock.Advance(250 * time.Millisecond)
		waitWindows(t, st, i+1)
	}
	// The tail: drops after the last tick fire at Stop, in the tail window.
	reg.Counter("pdns_records_scanned_total").Add(2000)
	reg.Counter("pdns_records_dropped_total").Add(50)
	clock.Advance(100 * time.Millisecond)
	rep := o.Stop()
	var events []obs.Event
	for _, e := range elog.Events() {
		if e.Type == obs.EventHealth {
			e.TUS = 0 // the event clock is wall time, not the schedule's
			events = append(events, e)
		}
	}
	return rep, events
}

// TestHealthFiringsLandOnWindows pins breach attribution under the fake
// clock: each health firing lands on the window whose closing tick saw it,
// with a matching window_index event attribute, and two identical
// schedules give byte-equal windows, health tables, and health events.
func TestHealthFiringsLandOnWindows(t *testing.T) {
	rep, events := scriptedHealthRun(t)
	want := map[int64]string{2: "resets", 3: "conn-rate/gcp", 5: "feed-drop-rate"}
	if len(rep.Windows) != 6 {
		t.Fatalf("windows = %d, want 5 ticked + tail", len(rep.Windows))
	}
	for _, w := range rep.Windows {
		var got []string
		for _, b := range w.Breaches {
			name := b.Rule
			if b.Group != "" {
				name += "/" + b.Group
			}
			got = append(got, name)
		}
		if exp, ok := want[w.Index]; ok != (len(got) == 1) || (ok && got[0] != exp) {
			t.Fatalf("window %d breaches = %v, want %q", w.Index, got, exp)
		}
		if w.Resources == nil || w.Resources.HeapInuseBytes == 0 {
			t.Fatalf("window %d has no resource reading", w.Index)
		}
	}
	fired := map[string]int64{}
	for _, h := range rep.Health {
		if h.Fired {
			name := h.Rule
			if h.Group != "" {
				name += "/" + h.Group
			}
			fired[name] = h.WindowIndex
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for idx, name := range want {
		if fired[name] != idx {
			t.Fatalf("%s stamped window %d, want %d", name, fired[name], idx)
		}
	}
	if len(events) != len(want) {
		t.Fatalf("health events = %+v, want %d", events, len(want))
	}
	for _, e := range events {
		var group, idx string
		for _, a := range e.Attrs {
			switch a.Key {
			case "group":
				group = a.Value
			case "window_index":
				idx = a.Value
			}
		}
		name := e.Name
		if group != "" {
			name += "/" + group
		}
		if idx != fmt.Sprint(fired[name]) {
			t.Fatalf("event %s window_index = %q, want %d", name, idx, fired[name])
		}
	}

	again, againEvents := scriptedHealthRun(t)
	for _, pair := range [][2]any{{rep.Windows, again.Windows}, {rep.Health, again.Health}, {events, againEvents}} {
		a, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("identical schedules diverged:\n%s\n%s", a, b)
		}
	}
}

// TestAllocRateUsesObserverClock: proc_alloc_bytes_per_s divides each
// sample's allocation delta by the time since the previous sample on the
// observer's clock, so the short final sample at Stop reports its true rate
// rather than the delta over a whole interval.
func TestAllocRateUsesObserverClock(t *testing.T) {
	fakeResources(t, 1000) // every reading allocates another 1000 bytes
	reg := obs.NewRegistry()
	clock := NewFakeClock(t0)
	st := NewStream()
	o := NewObserver(reg, Options{Interval: 250 * time.Millisecond, Clock: clock, Stream: st})
	o.Start()
	clock.Advance(250 * time.Millisecond)
	waitWindows(t, st, 1)
	if got := reg.Snapshot().Gauges["proc_alloc_bytes_per_s"]; got != 4000 {
		t.Fatalf("on-tick rate = %d B/s, want 1000 B / 250ms = 4000", got)
	}
	clock.Advance(50 * time.Millisecond) // before the next tick is due
	o.Stop()
	if got := reg.Snapshot().Gauges["proc_alloc_bytes_per_s"]; got != 20000 {
		t.Fatalf("final rate = %d B/s, want 1000 B / 50ms = 20000", got)
	}
}

// TestDriftDetection: a series with a stable per-window rate that suddenly
// spikes gets a drift annotation once warmup has passed, and the EWMA state
// is a pure function of the delta sequence.
func TestDriftDetection(t *testing.T) {
	det := newDetector([]string{"errs_total"})
	cum := int64(0)
	observe := func(delta int64) []Anomaly {
		cum += delta
		c := obs.Snapshot{Counters: map[string]int64{"errs_total": cum}}
		d := obs.Snapshot{Counters: map[string]int64{"errs_total": delta}}
		return det.observe(c, d)
	}
	if as := observe(5); len(as) != 1 || as[0].Kind != "activation" {
		t.Fatalf("first nonzero window = %+v, want activation", as)
	}
	for i := 0; i < 8; i++ {
		if as := observe(5); len(as) != 0 {
			t.Fatalf("steady window %d flagged %+v", i, as)
		}
	}
	as := observe(500)
	if len(as) != 1 || as[0].Kind != "drift" {
		t.Fatalf("spike window = %+v, want one drift anomaly", as)
	}
	if as[0].Score <= 3 {
		t.Fatalf("spike z-score = %v, want > 3", as[0].Score)
	}
}

// TestWatchlistIgnoresUnwatched: non-watchlist series never produce
// anomalies no matter how wild their deltas.
func TestWatchlistIgnoresUnwatched(t *testing.T) {
	det := newDetector(DefaultWatch())
	c := obs.Snapshot{Counters: map[string]int64{"pdns_records_total": 1 << 30}}
	if as := det.observe(c, c); len(as) != 0 {
		t.Fatalf("unwatched series flagged: %+v", as)
	}
}

// TestVecSeriesWatched: a watched vector metric is tracked per labeled
// series, and the anomaly order is sorted by series name.
func TestVecSeriesWatched(t *testing.T) {
	det := newDetector([]string{"pdns_ingest_total"})
	vec := obs.VecSnapshot{Labels: []string{"shard", "disposition"}, Series: map[string]int64{
		obs.JoinSeriesKey([]string{"3", "invalid"}): 2,
		obs.JoinSeriesKey([]string{"1", "invalid"}): 4,
	}}
	s := obs.Snapshot{CounterVecs: map[string]obs.VecSnapshot{"pdns_ingest_total": vec}}
	as := det.observe(s, s)
	if len(as) != 2 || as[0].Kind != "activation" || as[1].Kind != "activation" {
		t.Fatalf("vec activations = %+v, want 2", as)
	}
	if as[0].Series >= as[1].Series {
		t.Fatalf("anomalies unsorted: %q then %q", as[0].Series, as[1].Series)
	}
}

// TestObserverLifecycle: with sampling off the observer records health
// only — no windows, no resources — and still closes a given stream; with
// sampling on, an off-schedule tick closes a window, Stop flushes the tail
// window and the health table, and a second Stop returns the same report.
func TestObserverLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	clock := NewFakeClock(t0)
	st := NewStream()
	off := NewObserver(reg, Options{Clock: clock, Stream: st,
		Rules: []health.Rule{{Name: "corrupt", Metric: "fault_corrupt_records_total", Max: 0}}})
	off.Start()
	reg.Counter("fault_corrupt_records_total").Inc()
	clock.Advance(time.Second) // two health-only ticks
	rep := off.Stop()
	if len(rep.Windows) != 0 || len(rep.Resources) != 0 {
		t.Fatalf("sampling off recorded %d windows, %d resource rows", len(rep.Windows), len(rep.Resources))
	}
	if !health.Fired(rep.Health) || rep.Health[0].WindowIndex != 0 {
		t.Fatalf("health-only report = %+v, want the rule fired and unstamped", rep.Health)
	}
	if _, open := <-mustSubscribe(st); open {
		t.Fatal("stream still open after Stop")
	}

	reg = obs.NewRegistry()
	o := NewObserver(reg, Options{Interval: time.Second, Clock: clock})
	o.Start()
	o.SetStage("ingest")
	o.tick(clock.Now(), false)
	o.SetStage("probe")
	reg.Counter("tail_total").Inc()
	rep = o.Stop()
	ws := rep.Windows
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2 (explicit + tail flush)", len(ws))
	}
	if ws[0].Stage != "ingest" || ws[1].Stage != "probe" || ws[1].Counters["tail_total"] != 1 {
		t.Fatalf("windows = %+v, want ingest then a probe tail with the post-tick increment", ws)
	}
	if ws[0].Resources == nil || ws[1].Resources == nil || len(rep.Resources) != 2 {
		t.Fatalf("resources: windows %v/%v, stages %+v — want a reading per window and per stage", ws[0].Resources, ws[1].Resources, rep.Resources)
	}
	if again := o.Stop(); len(again.Windows) != 2 {
		t.Fatalf("second Stop windows = %d, want 2", len(again.Windows))
	}
}

func mustSubscribe(st *Stream) <-chan Window {
	ch, _ := st.Subscribe(1)
	return ch
}

// TestTickerDrivesCapture: the fake clock's ticker path produces windows
// without any off-schedule tick.
func TestTickerDrivesCapture(t *testing.T) {
	reg := obs.NewRegistry()
	clock := NewFakeClock(t0)
	st := NewStream()
	o := NewObserver(reg, Options{Interval: 250 * time.Millisecond, Clock: clock, Stream: st})
	o.Start()
	reg.Counter("c").Add(3)
	clock.Advance(time.Second) // 4 ticks
	waitWindows(t, st, 4)
	ws := o.Stop().Windows
	if len(ws) != 5 { // 4 ticked + tail flush
		t.Fatalf("windows = %d, want 5", len(ws))
	}
	if ws[0].Counters["c"] != 3 || ws[0].EndUS != 250_000 {
		t.Fatalf("window 0 = %+v, want c=3 end=250ms", ws[0])
	}
	if ws[3].EndUS != 1_000_000 {
		t.Fatalf("window 3 end = %dµs, want 1s", ws[3].EndUS)
	}
}

// TestJSONLRoundTrip: WriteJSONL/ReadJSONL are inverses and the encoding is
// byte-stable across renders of the same sequence.
func TestJSONLRoundTrip(t *testing.T) {
	ws := []Window{
		{Index: 0, EndUS: 1000, Stage: "ingest", Stages: []string{"ingest"},
			Counters: map[string]int64{"a": 1}, Hists: map[string]HistWindow{"h": {Count: 2, P50: 0.1, P90: 0.2, P99: 0.3}}},
		{Index: 1, StartUS: 1000, EndUS: 2000,
			Anomalies: []Anomaly{{Series: "fault_resets_injected_total", Kind: "activation", Value: 4}},
			Breaches:  []Breach{{Rule: "r", Value: 1, Max: 0}},
			Resources: &obs.ResourcePeaks{HeapInuseBytes: 1 << 20, Goroutines: 12}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ws); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, got) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", ws, got)
	}
	var buf2 bytes.Buffer
	WriteJSONL(&buf2, got)
	if buf2.String() != first {
		t.Fatal("re-encoding the parsed windows changed the bytes")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte("{bad\n"))); err == nil {
		t.Fatal("corrupt line parsed without error")
	}
}

// TestSubscribeStream: subscribers see each window once and the channel
// closes on Stop; a canceled subscription stops receiving.
func TestSubscribeStream(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStream()
	o := NewObserver(reg, Options{Interval: time.Second, Clock: NewFakeClock(t0), Stream: st})
	o.Start()
	ch, cancel := st.Subscribe(8)
	defer cancel()
	o.tick(t0, false)
	o.tick(t0, false)
	o.Stop() // flush + close
	var got []int64
	for w := range ch {
		got = append(got, w.Index)
	}
	want := []int64{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber saw %v, want %v", got, want)
	}
	// Subscribing after Stop yields a closed channel immediately.
	ch2, cancel2 := st.Subscribe(1)
	defer cancel2()
	if _, open := <-ch2; open {
		t.Fatal("post-Stop subscription delivered a window")
	}
}

// TestFakeClockOrdering: ticks are delivered in time order across tickers
// of different periods, and Now advances with the delivered tick.
func TestFakeClockOrdering(t *testing.T) {
	clock := NewFakeClock(t0)
	fast := clock.NewTicker(100 * time.Millisecond)
	slow := clock.NewTicker(250 * time.Millisecond)
	var order []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 7; i++ {
			select {
			case at := <-fast.Chan():
				order = append(order, fmt.Sprintf("fast@%d", at.Sub(t0).Milliseconds()))
			case at := <-slow.Chan():
				order = append(order, fmt.Sprintf("slow@%d", at.Sub(t0).Milliseconds()))
			}
		}
	}()
	clock.Advance(500 * time.Millisecond)
	<-done
	// Ties (fast@500 vs slow@500) break by ticker registration order.
	want := []string{"fast@100", "fast@200", "slow@250", "fast@300", "fast@400", "fast@500", "slow@500"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tick order = %v, want %v", order, want)
	}
	if clock.Now() != t0.Add(500*time.Millisecond) {
		t.Fatalf("Now = %v after advance", clock.Now())
	}
	fast.Stop()
	slow.Stop()
	clock.Advance(time.Second) // stopped tickers: no delivery, no deadlock
}
