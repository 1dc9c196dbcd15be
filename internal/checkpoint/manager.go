package checkpoint

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pdns"
)

// keepFiles is how many checkpoint files survive pruning. More than one, so
// a torn newest file still leaves a valid fallback; few enough that the
// archive slot stays small.
const keepFiles = 3

// Dir returns the checkpoint directory of a run: <root>/<runID>/checkpoints.
func Dir(root, runID string) string { return filepath.Join(root, runID, DirName) }

// Manager owns a run's checkpoint lifecycle: it accumulates the
// completed-stage ledger plus the latest restorable state, and persists a
// cumulative snapshot — atomically, via tmp + fsync + rename — at every
// stage boundary. Write failures degrade the run's durability, not its
// correctness, so they are counted and logged but never abort the
// pipeline. A nil *Manager is a valid no-op, which keeps the
// checkpoint-disabled path in core free of conditionals.
type Manager struct {
	mu      sync.Mutex
	dir     string
	runID   string
	seed    int64
	workers int

	seq          uint64
	writes       int
	lastStage    string
	resumedFrom  uint64
	resumedStage string
	stages       []string
	agg          *pdns.Aggregate
	probe        *ProbeState
	counters     map[string]int64
	lastWrite    time.Time

	elog    *obs.EventLog
	mWrites *obs.Counter // checkpoint_write_total
	mErrors *obs.Counter // checkpoint_write_errors_total
	gBytes  *obs.Gauge   // checkpoint_last_bytes
	gSeq    *obs.Gauge   // checkpoint_last_seq
	gAgeMS  *obs.Gauge   // checkpoint_age_ms (gap between consecutive writes)
}

// NewManager builds a manager writing into dir for the given run identity.
func NewManager(dir, runID string, seed int64, workers int, reg *obs.Registry, elog *obs.EventLog) *Manager {
	return &Manager{
		dir: dir, runID: runID, seed: seed, workers: workers,
		counters: map[string]int64{},
		elog:     elog,
		mWrites:  reg.Counter("checkpoint_write_total"),
		mErrors:  reg.Counter("checkpoint_write_errors_total"),
		gBytes:   reg.Gauge("checkpoint_last_bytes"),
		gSeq:     reg.Gauge("checkpoint_last_seq"),
		gAgeMS:   reg.Gauge("checkpoint_age_ms"),
	}
}

// Restore seeds the manager from the snapshot the run resumed from: the
// ledger and restorable state carry over (so later boundary snapshots stay
// cumulative) and sequence numbering continues where the parent run's left
// off.
func (m *Manager) Restore(s *Snapshot) {
	if m == nil || s == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq = s.Header.Seq
	m.resumedFrom = s.Header.Seq
	m.resumedStage = s.Header.Stage
	m.stages = append([]string(nil), s.Stages...)
	m.agg = s.Aggregate
	m.probe = s.Probe
	maps.Copy(m.counters, s.Counters)
}

// StageDone records stage as completed and persists a boundary snapshot.
// agg and probe, when non-nil, replace the manager's restorable state; nil
// leaves the previously recorded state in place, so snapshots accumulate.
// counters (the stage's counter deltas, by metric name) are merged into
// those of earlier stages. The ledger append is idempotent: a resumed run
// re-announces the stages it skipped without duplicating their entries.
func (m *Manager) StageDone(stage string, agg *pdns.Aggregate, probe *ProbeState, counters map[string]int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if agg != nil {
		m.agg = agg
	}
	if probe != nil {
		m.probe = probe
	}
	maps.Copy(m.counters, counters)
	seen := false
	for _, s := range m.stages {
		if s == stage {
			seen = true
			break
		}
	}
	if !seen {
		m.stages = append(m.stages, stage)
	}
	m.save(stage)
}

// save encodes and atomically writes one snapshot; the caller holds m.mu.
func (m *Manager) save(stage string) {
	m.seq++
	snap := &Snapshot{
		Header: Header{
			RunID: m.runID, Seed: m.seed, Workers: m.workers,
			Seq: m.seq, Stage: stage, ResumedFromSeq: m.resumedFrom,
		},
		Stages:    m.stages,
		Aggregate: m.agg,
		Probe:     m.probe,
		Counters:  m.counters,
	}
	data, err := Encode(snap)
	if err == nil {
		err = writeAtomic(m.dir, fileName(m.seq), data)
	}
	if err != nil {
		m.seq-- // the slot was never occupied
		m.mErrors.Inc()
		m.elog.Emit(obs.EventNote, "checkpoint-error", obs.Attr{Key: "error", Value: err.Error()})
		return
	}
	now := time.Now()
	if !m.lastWrite.IsZero() {
		m.gAgeMS.Set(now.Sub(m.lastWrite).Milliseconds())
	}
	m.lastWrite = now
	m.writes++
	m.lastStage = stage
	m.mWrites.Inc()
	m.gBytes.Set(int64(len(data)))
	m.gSeq.Set(int64(m.seq))
	m.elog.Emit(obs.EventNote, "checkpoint",
		obs.Attr{Key: "seq", Value: fmt.Sprint(m.seq)},
		obs.Attr{Key: "stage", Value: stage},
		obs.Attr{Key: "bytes", Value: fmt.Sprint(len(data))})
	m.prune()
}

// Lineage summarises the manager's checkpoint history for the run archive.
type Lineage struct {
	Writes       int
	LastSeq      uint64
	LastStage    string
	Resumed      bool
	ResumedFrom  uint64
	ResumedStage string
}

// Info returns the manager's lineage so far.
func (m *Manager) Info() Lineage {
	if m == nil {
		return Lineage{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Lineage{
		Writes: m.writes, LastSeq: m.seq, LastStage: m.lastStage,
		Resumed: m.resumedFrom > 0, ResumedFrom: m.resumedFrom, ResumedStage: m.resumedStage,
	}
}

func fileName(seq uint64) string { return fmt.Sprintf("ckpt-%06d.ckpt", seq) }

// writeAtomic lands data at dir/name through a same-directory temp file,
// fsync, and rename, so a crash mid-write leaves either the old state or
// the new one — never a torn file under the final name. The directory is
// fsynced best-effort afterwards to persist the rename itself.
func writeAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-"+name+"-")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best effort: persist the rename
		d.Close()
	}
	return nil
}

// prune removes checkpoint files beyond the newest keepFiles; best effort.
func (m *Manager) prune() {
	names := checkpointFiles(m.dir)
	for i := 0; i+keepFiles < len(names); i++ {
		os.Remove(filepath.Join(m.dir, names[i]))
	}
}

// checkpointFiles lists ckpt-*.ckpt under dir in ascending (oldest-first)
// name order; the zero-padded sequence makes name order sequence order.
func checkpointFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Latest loads the newest valid checkpoint for runID under root, skipping
// (and reporting) corrupt or torn files. With no usable checkpoint it
// distinguishes the two failure shapes: ErrNoCheckpoint when nothing under
// root has checkpoints for any run (the caller may start fresh), ErrMismatch
// when checkpoints exist only for other run IDs — the config changed between
// the crash and the resume, and resuming would mix experiments.
func Latest(root, runID string) (*Snapshot, []string, error) {
	dir := Dir(root, runID)
	var warns []string
	for i := len(checkpointFiles(dir)) - 1; i >= 0; i-- {
		name := checkpointFiles(dir)[i]
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			warns = append(warns, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		snap, err := Decode(data)
		if err != nil {
			warns = append(warns, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if snap.Header.RunID != runID {
			warns = append(warns, fmt.Sprintf("%s: belongs to run %s, not %s", name, snap.Header.RunID, runID))
			continue
		}
		return snap, warns, nil
	}
	if others := otherCheckpointedRuns(root, runID); len(others) > 0 {
		return nil, warns, fmt.Errorf("%w: no checkpoint for run %s, but checkpoints exist for %s — the configuration does not match the interrupted run", ErrMismatch, runID, strings.Join(others, ", "))
	}
	return nil, warns, fmt.Errorf("%w for run %s under %s", ErrNoCheckpoint, runID, root)
}

// otherCheckpointedRuns lists run directories under root (excluding runID)
// that contain checkpoint files.
func otherCheckpointedRuns(root, runID string) []string {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || e.Name() == runID || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if len(checkpointFiles(Dir(root, e.Name()))) > 0 {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// FileInfo describes one on-disk checkpoint file for `scfruns show`.
type FileInfo struct {
	Name           string
	Size           int64
	Seq            uint64
	Stage          string
	Stages         int
	ResumedFromSeq uint64
	Err            string // non-empty when the file failed to decode
}

// Inspect summarises every checkpoint file under dir, oldest first. Corrupt
// files are reported, not skipped — a lineage view should show the torn
// write the resume skipped over.
func Inspect(dir string) []FileInfo {
	var out []FileInfo
	for _, name := range checkpointFiles(dir) {
		fi := FileInfo{Name: name}
		path := filepath.Join(dir, name)
		if st, err := os.Stat(path); err == nil {
			fi.Size = st.Size()
		}
		data, err := os.ReadFile(path)
		if err == nil {
			var snap *Snapshot
			if snap, err = Decode(data); err == nil {
				fi.Seq = snap.Header.Seq
				fi.Stage = snap.Header.Stage
				fi.Stages = len(snap.Stages)
				fi.ResumedFromSeq = snap.Header.ResumedFromSeq
			}
		}
		if err != nil {
			fi.Err = err.Error()
		}
		out = append(out, fi)
	}
	return out
}
