package obs

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// ResourceStats is the per-stage high-water-mark record the resource sampler
// accumulates: the worst observation of each runtime dimension while the
// stage was the run's current stage. Everything here is machine-varying —
// the record lands on the timings side of a run archive, never in the
// deterministic summary.
type ResourceStats struct {
	Stage   string `json:"stage"`
	Samples int64  `json:"samples"`
	// MaxHeapInuseBytes is the peak runtime.MemStats.HeapInuse observed.
	MaxHeapInuseBytes int64 `json:"max_heap_inuse_bytes"`
	// MaxRSSBytes is the peak process resident set; 0 on platforms without
	// an RSS reader (see rssBytes).
	MaxRSSBytes int64 `json:"max_rss_bytes,omitempty"`
	// MaxGoroutines is the peak runtime.NumGoroutine reading.
	MaxGoroutines int64 `json:"max_goroutines"`
	// AllocBytes is the TotalAlloc delta attributed to the stage — the
	// bytes the allocator handed out while the stage was current.
	AllocBytes int64 `json:"alloc_bytes"`
	// GCCount is how many collections completed while the stage was current.
	GCCount int64 `json:"gc_count"`
	// GCPauseP99NS is the p99 stop-the-world pause over the collections
	// attributed to the stage, 0 when none completed.
	GCPauseP99NS int64 `json:"gc_pause_p99_ns,omitempty"`
}

// ResourceSampler folds runtime readings (heap in use, cumulative
// allocations, GC pauses, goroutine count, RSS) into per-stage high-water
// marks. It owns no goroutine and no clock: the run's observer takes one
// reading per tick and hands it over with the tick's time. Each sample
// publishes the readings as gauges into the registry, appends one
// EventResource record to the event log, and updates the current stage's
// marks. A nil *ResourceSampler is a valid no-op — the observer holds one
// when sampling is off. Not safe for concurrent use; the observer
// serialises every call.
//
// The sampler touches only the registry and the event log — the two
// machine-varying surfaces of a run — so enabling it cannot move a run ID,
// a golden artifact fingerprint, or any other deterministic output.
type ResourceSampler struct {
	reg  *Registry
	elog *EventLog

	stats     map[string]*ResourceStats
	order     []string // stage first-seen order
	pauses    map[string][]uint64
	lastGC    uint32
	lastAlloc uint64
	lastAt    time.Time
}

// maxPausesPerStage bounds the per-stage GC pause buffer; beyond it the
// oldest pauses are dropped. 4096 collections per stage is far past any
// realistic run, but the bound keeps a pathological GC storm from turning
// the sampler into the leak it is supposed to find.
const maxPausesPerStage = 4096

// ResourceReading is one observation of the process runtime.
type ResourceReading struct {
	Mem        runtime.MemStats
	Goroutines int64
	RSS        int64 // 0 on platforms without an RSS reader (see rssBytes)
}

// ReadResources takes one reading of the process runtime.
func ReadResources() ResourceReading {
	var r ResourceReading
	runtime.ReadMemStats(&r.Mem)
	r.Goroutines = int64(runtime.NumGoroutine())
	r.RSS = rssBytes()
	return r
}

// NewResourceSampler builds a sampler over reg and elog whose first sample
// measures allocations and collections from base, taken at at.
func NewResourceSampler(reg *Registry, elog *EventLog, base ResourceReading, at time.Time) *ResourceSampler {
	return &ResourceSampler{
		reg:       reg,
		elog:      elog,
		stats:     make(map[string]*ResourceStats),
		pauses:    make(map[string][]uint64),
		lastGC:    base.Mem.NumGC,
		lastAlloc: base.Mem.TotalAlloc,
		lastAt:    at,
	}
}

// ResourcePeaks is the resource record of one timeline window: the
// reading the observer took when it closed the window.
type ResourcePeaks struct {
	HeapInuseBytes int64 `json:"heap_inuse_bytes,omitempty"`
	RSSBytes       int64 `json:"rss_bytes,omitempty"`
	Goroutines     int64 `json:"goroutines,omitempty"`
}

// Sample folds reading r, taken at now while stage was current, into the
// stage's marks, publishes the gauges, logs one EventResource record, and
// returns the reading's window record. The allocation rate gauge divides by
// the time since the previous sample, so a short final sample reports its
// true rate.
func (s *ResourceSampler) Sample(now time.Time, stage string, r ResourceReading) ResourcePeaks {
	if s == nil {
		return ResourcePeaks{}
	}
	ms := &r.Mem
	allocDelta := int64(ms.TotalAlloc - s.lastAlloc)
	gcDelta := int64(ms.NumGC - s.lastGC)
	elapsed := now.Sub(s.lastAt)
	// Harvest the pauses of collections completed since the last sample
	// from MemStats' 256-entry circular pause buffer; a burst past 256
	// keeps the newest.
	newPauses := gcDelta
	if newPauses > int64(len(ms.PauseNs)) {
		newPauses = int64(len(ms.PauseNs))
	}
	st := s.stats[stage]
	if st == nil {
		st = &ResourceStats{Stage: stage}
		s.stats[stage] = st
		s.order = append(s.order, stage)
	}
	heap := int64(ms.HeapInuse)
	st.Samples++
	st.MaxHeapInuseBytes = max(st.MaxHeapInuseBytes, heap)
	st.MaxRSSBytes = max(st.MaxRSSBytes, r.RSS)
	st.MaxGoroutines = max(st.MaxGoroutines, r.Goroutines)
	st.AllocBytes += allocDelta
	st.GCCount += gcDelta
	for i := int64(0); i < newPauses; i++ {
		p := ms.PauseNs[(uint32(int64(ms.NumGC)-i)+255)%256]
		s.pauses[stage] = append(s.pauses[stage], p)
	}
	if n := len(s.pauses[stage]); n > maxPausesPerStage {
		s.pauses[stage] = s.pauses[stage][n-maxPausesPerStage:]
	}
	s.lastGC, s.lastAlloc, s.lastAt = ms.NumGC, ms.TotalAlloc, now

	s.reg.Gauge("proc_heap_inuse_bytes").Set(heap)
	s.reg.Gauge("proc_heap_alloc_bytes_total").Set(int64(ms.TotalAlloc))
	s.reg.Gauge("proc_goroutines").Set(r.Goroutines)
	s.reg.Gauge("proc_gc_total").Set(int64(ms.NumGC))
	if r.RSS > 0 {
		s.reg.Gauge("proc_rss_bytes").Set(r.RSS)
	}
	if elapsed > 0 {
		s.reg.Gauge("proc_alloc_bytes_per_s").Set(int64(float64(allocDelta) / elapsed.Seconds()))
	}
	s.elog.Emit(EventResource, stage,
		Attr{Key: "heap_inuse_bytes", Value: fmt.Sprint(ms.HeapInuse)},
		Attr{Key: "rss_bytes", Value: fmt.Sprint(r.RSS)},
		Attr{Key: "goroutines", Value: fmt.Sprint(r.Goroutines)},
		Attr{Key: "num_gc", Value: fmt.Sprint(ms.NumGC)},
		Attr{Key: "gc_pause_p99_ns", Value: fmt.Sprint(pauseP99(s.pauses[stage]))},
		Attr{Key: "alloc_bytes_delta", Value: fmt.Sprint(allocDelta)},
	)
	return ResourcePeaks{HeapInuseBytes: heap, RSSBytes: r.RSS, Goroutines: r.Goroutines}
}

// Stats returns the per-stage high-water marks in stage first-seen order.
func (s *ResourceSampler) Stats() []ResourceStats {
	if s == nil {
		return nil
	}
	out := make([]ResourceStats, 0, len(s.order))
	for _, name := range s.order {
		st := *s.stats[name]
		st.GCPauseP99NS = pauseP99(s.pauses[name])
		out = append(out, st)
	}
	return out
}

// pauseP99 is the p99 (nearest-rank) of a pause sample set, 0 when empty.
func pauseP99(pauses []uint64) int64 {
	if len(pauses) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), pauses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (99*len(sorted) + 99) / 100 // ceil(0.99n), 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return int64(sorted[rank-1])
}
