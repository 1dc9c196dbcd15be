// Package prof is the pipeline's continuous-profiling subsystem: a capture
// manager that records one CPU profile across a whole run (with per-stage /
// per-shard attribution riding on runtime/pprof labels) plus heap, allocs,
// block, and mutex snapshots at every stage boundary. It writes profiles and
// never reads them: the archived files are the standard gzipped pprof
// protobuf, read with `go tool pprof` (README "Continuous profiling").
//
// What a boundary snapshot <stage>-<kind>.pb.gz holds:
//
//   - heap: in-use memory as of the last GC before the boundary;
//   - allocs, block, mutex: cumulative since process start (block and mutex
//     since Start turned their sampling on), not the stage's own cost.
//
// One stage's own allocations, blocking or contention are the difference
// from the previous stage's snapshot of the same kind:
//
//	go tool pprof -diff_base=<previous-stage>-<kind>.pb.gz <stage>-<kind>.pb.gz
//
// Profiles observe a run, they never change one: everything captured here
// lands on the machine-varying half of a run archive
// (.runs/<id>/profiles/<stage>-<kind>.pb.gz), and the enabling flag is
// excluded from the run-ID hash exactly like the observer's sampling
// interval, so toggling profiling cannot move a run ID or any golden
// artifact fingerprint.
package prof

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
)

// SnapshotKinds are the runtime profiles captured at every stage boundary,
// in capture order. CPU is not in the list: it is one continuous capture
// across the whole run, attributed per stage by pprof labels instead of by
// boundary snapshots (Go allows only one active CPU profile per process).
var SnapshotKinds = []string{"heap", "allocs", "block", "mutex"}

// CPUSnapshotStage is the synthetic stage name of the run-wide CPU profile:
// its samples span every stage, so no single stage name fits.
const CPUSnapshotStage = "pipeline"

// Snapshot is one captured profile: the stage it is attributed to, the
// runtime profile kind, and the raw gzipped-protobuf bytes exactly as
// runtime/pprof wrote them.
type Snapshot struct {
	Stage string
	Kind  string
	Data  []byte
}

// FileName is the snapshot's archive file name under profiles/.
func (s Snapshot) FileName() string { return s.Stage + "-" + s.Kind + ".pb.gz" }

// blockProfileRate samples one blocking event per millisecond of cumulative
// blocking; mutexProfileFraction samples 1% of contended mutex events. Both
// are modest enough that an enabled run stays within a few percent of an
// unprofiled one, and both are restored to off at Stop.
const (
	blockProfileRate     = 1_000_000 // ns of blocking per sampled event
	mutexProfileFraction = 100
)

// Capturer records a run's profiles: Start begins the run-wide CPU capture
// (and turns on block/mutex sampling), StageBoundary snapshots the
// SnapshotKinds as the current stage ends, and Stop closes the CPU
// capture and returns every snapshot taken. A nil *Capturer is a valid
// no-op — NewCapturer(false) returns one — so callers wire it
// unconditionally and let the enabling flag decide whether it exists.
// All methods are safe for concurrent use.
type Capturer struct {
	mu      sync.Mutex
	cpu     bytes.Buffer
	cur     string // stage the next boundary snapshot is attributed to
	snaps   []Snapshot
	cpuOn   bool
	stopped bool
	err     error
}

// NewCapturer returns a ready Capturer, or the nil no-op when profiling is
// disabled.
func NewCapturer(enabled bool) *Capturer {
	if !enabled {
		return nil
	}
	return &Capturer{}
}

// Start begins the run-wide CPU profile and enables block/mutex sampling.
// Failure to start the CPU profile (another capture is already active in
// the process) is recorded and returned, but the boundary snapshots still
// work — a run inside a test that profiles never loses its heap story.
func (c *Capturer) Start() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	runtime.SetBlockProfileRate(blockProfileRate)
	runtime.SetMutexProfileFraction(mutexProfileFraction)
	if err := pprof.StartCPUProfile(&c.cpu); err != nil {
		c.err = fmt.Errorf("prof: cpu profile: %w", err)
		return c.err
	}
	c.cpuOn = true
	return nil
}

// Err returns the first capture error, if any.
func (c *Capturer) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// StageBoundary marks the transition into stage next: it snapshots every
// SnapshotKind under the name of the stage that was current (none on the
// first call — no stage has finished yet) and makes next the current stage.
// A snapshot is the process's state when that stage ended: the heap it left
// in use ("the heap after identify", what a leak hunt wants), and the
// allocs, block and mutex totals accumulated by it and every stage before
// it. Diff against the previous stage's snapshot for the stage alone.
func (c *Capturer) StageBoundary(next string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshotLocked()
	c.cur = next
}

// snapshotLocked captures the SnapshotKinds for the current stage. Caller
// holds mu. Re-entered boundaries for the same stage overwrite: the archive
// keeps the newest snapshot per (stage, kind) file name.
func (c *Capturer) snapshotLocked() {
	if c.cur == "" || c.stopped {
		return
	}
	for _, kind := range SnapshotKinds {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			if c.err == nil {
				c.err = fmt.Errorf("prof: %s snapshot: %w", kind, err)
			}
			continue
		}
		c.snaps = append(c.snaps, Snapshot{Stage: c.cur, Kind: kind, Data: buf.Bytes()})
	}
}

// Stop snapshots the final stage, ends the CPU capture, restores the
// block/mutex sampling rates, and returns every snapshot taken — the CPU
// profile last, under CPUSnapshotStage. Second and later calls return the
// same snapshots without capturing again.
func (c *Capturer) Stop() []Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return c.snaps
	}
	c.snapshotLocked()
	c.stopped = true
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	if c.cpuOn {
		pprof.StopCPUProfile()
		c.cpuOn = false
		c.snaps = append(c.snaps, Snapshot{Stage: CPUSnapshotStage, Kind: "cpu", Data: c.cpu.Bytes()})
	}
	return c.snaps
}
