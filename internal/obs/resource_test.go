package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestResourceSamplerDisabledIsNil(t *testing.T) {
	// The nil sampler — what the observer holds when sampling is off — is
	// a full no-op: every method is callable.
	var s *ResourceSampler
	if p := s.Sample(time.Now(), "x", ReadResources()); p != (ResourcePeaks{}) {
		t.Fatalf("nil sampler Sample = %+v, want zero", p)
	}
	if got := s.Stats(); got != nil {
		t.Fatalf("nil sampler Stats: want nil, got %v", got)
	}
}

func TestResourceSamplerCollectsStats(t *testing.T) {
	reg := NewRegistry()
	elog := NewEventLog()
	at := time.Unix(1000, 0)
	s := NewResourceSampler(reg, elog, ReadResources(), at)
	// Allocate visibly between samples so the alloc delta and heap gauges
	// move.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 25; i++ {
		sink = append(sink, make([]byte, 1<<16))
		at = at.Add(2 * time.Millisecond)
		s.Sample(at, "identify", ReadResources())
	}
	_ = sink
	at = at.Add(25 * time.Millisecond)
	p := s.Sample(at, "probe", ReadResources())
	if p.HeapInuseBytes <= 0 || p.Goroutines <= 0 {
		t.Fatalf("sample window record = %+v, want positive heap and goroutines", p)
	}
	stats := s.Stats()

	if len(stats) != 2 {
		t.Fatalf("stats = %v, want identify and probe", stats)
	}
	byStage := map[string]ResourceStats{}
	for _, st := range stats {
		byStage[st.Stage] = st
	}
	if byStage["identify"].Samples != 25 || byStage["identify"].AllocBytes < 25<<16 {
		t.Fatalf("identify = %+v, want 25 samples and >= %d allocated bytes", byStage["identify"], 25<<16)
	}
	for _, stage := range []string{"identify", "probe"} {
		st, ok := byStage[stage]
		if !ok {
			t.Fatalf("stage %s missing from stats (got %v)", stage, stats)
		}
		if st.Samples == 0 || st.MaxHeapInuseBytes == 0 || st.MaxGoroutines == 0 {
			t.Fatalf("stage %s has empty high-water marks: %+v", stage, st)
		}
	}

	snap := reg.Snapshot()
	for _, g := range []string{"proc_heap_inuse_bytes", "proc_goroutines", "proc_heap_alloc_bytes_total"} {
		if snap.Gauges[g] <= 0 {
			t.Fatalf("gauge %s not published: %d", g, snap.Gauges[g])
		}
	}
	// GC may legitimately not run during a short test; the gauge must still
	// be registered (possibly at zero).
	if _, ok := snap.Gauges["proc_gc_total"]; !ok {
		t.Fatal("gauge proc_gc_total not registered")
	}

	var resourceEvents int
	for _, e := range elog.Events() {
		if e.Type == EventResource {
			resourceEvents++
		}
	}
	if resourceEvents != 26 {
		t.Fatalf("EventResource records = %d, want one per sample (26)", resourceEvents)
	}
}

// TestResourceSamplerStopWithoutStart: stats before any sample are empty,
// not a panic, and a single sample yields exactly one row.
func TestResourceSamplerStopWithoutStart(t *testing.T) {
	at := time.Unix(1000, 0)
	s := NewResourceSampler(NewRegistry(), NewEventLog(), ReadResources(), at)
	if stats := s.Stats(); len(stats) != 0 {
		t.Fatalf("stats before any sample = %v, want none", stats)
	}
	s.Sample(at.Add(time.Millisecond), "(startup)", ReadResources())
	if stats := s.Stats(); len(stats) != 1 || stats[0].Samples != 1 {
		t.Fatalf("want exactly the one sample under the startup stage, got %v", stats)
	}
}

// TestResourceSamplerRace hammers the registry from concurrent workers the
// way a parallel pipeline stage does — counter and gauge traffic from 1, 2,
// and 8 goroutines — while one goroutine samples, as the observer does, and
// publishes the proc_* gauges into the same registry. Run under -race via
// the Makefile race target.
func TestResourceSamplerRace(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := NewRegistry()
			at := time.Unix(1000, 0)
			s := NewResourceSampler(reg, NewEventLog(), ReadResources(), at)
			stop := make(chan struct{})
			sampled := make(chan int)
			go func() {
				n := 0
				for {
					select {
					case <-stop:
						sampled <- n
						return
					default:
					}
					at = at.Add(500 * time.Microsecond)
					s.Sample(at, fmt.Sprintf("stage-%d", n%3), ReadResources())
					n++
					time.Sleep(500 * time.Microsecond)
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						reg.Counter("race_test_total").Inc()
						reg.Gauge("proc_goroutines").Set(int64(i))
						if i%10 == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			if n := <-sampled; n == 0 {
				t.Fatal("sampler never ran")
			}
			if len(s.Stats()) == 0 {
				t.Fatal("no stats after concurrent sampling")
			}
		})
	}
}
