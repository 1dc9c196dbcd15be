// Package runs is the pipeline's persistent run-history layer: every
// instrumented run archives its provenance under .runs/<run-id>/, and the
// package's differ and gate turn two archives into a regression verdict.
// The archive splits into a deterministic half (summary.json and
// artifacts/ — a pure function of seed, config, and workers) and a
// machine-varying half, so "did the measurement change?" and "did the
// measurement get slower?" are separately answerable. Each file holds
// different facts:
//
//	summary.json   config, degradations, calibration shares, fingerprints
//	artifacts/     the rendered tables and figures
//	timings.json   the end-of-run state: stage rows, final metric
//	               snapshot, health, resources, checkpoint lineage
//	events.jsonl   the time-ordered log of stages, spans and notes
//	trace.json     events.jsonl rendered as a Chrome trace, for Perfetto
//	profiles/, timeline.jsonl, checkpoints/   when the run records them
package runs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/prof"
)

// Archive file names inside a run directory.
const (
	SummaryFile  = "summary.json"
	TimingsFile  = "timings.json"
	EventsFile   = "events.jsonl"
	TraceFile    = "trace.json"
	ArtifactsDir = "artifacts"
	// CheckpointsDir is where internal/checkpoint keeps a run's snapshot
	// files (named here rather than imported, to keep the layers decoupled).
	// WriteDir preserves it across the atomic overwrite of an archive slot,
	// so re-running a config never erases its crash-recovery lineage.
	CheckpointsDir = "checkpoints"
	// ProfilesDir holds the run's captured pprof profiles
	// (<stage>-<kind>.pb.gz) — strictly machine-varying, like timings.
	ProfilesDir = "profiles"
	// TimelineFile is the windowed-telemetry record stream, one JSON window
	// per line (see internal/obs/timeline). Machine-varying: wall-clock
	// windows slice the run differently on every machine, so it never
	// participates in fingerprints.
	TimelineFile = "timeline.jsonl"
)

// DeterministicArtifacts names the emitted artifacts that are bit-identical
// for a fixed (seed, config) pair at any worker count — the
// worker-invariance tests of internal/workload and internal/core pin them.
// Only these participate in fingerprint gating; the rest are recorded and
// diffed but never fail a gate.
var DeterministicArtifacts = map[string]bool{
	"table2.txt":      true,
	"table3.txt":      true,
	"fig3.txt":        true,
	"fig4.txt":        true,
	"fig5.txt":        true,
	"disclosures.txt": true,
}

// Summary is the deterministic half of a run archive: identity, config,
// what the run absorbed, the paper-calibration shares it measured, and the
// SHA-256 fingerprint of every emitted artifact. Two runs with identical
// seed/config/workers produce byte-identical summaries.
type Summary struct {
	// ID is derived from ConfigHash, so identical configs collide
	// intentionally: re-running the same experiment overwrites its
	// archive slot instead of accreting near-duplicates.
	ID         string            `json:"id"`
	Tool       string            `json:"tool"`
	ConfigHash string            `json:"config_hash"`
	Meta       map[string]string `json:"meta,omitempty"`
	// Degradations is the per-stage absorbed-failure record (empty for a
	// clean run). Deterministic: fault schedules derive from the seed.
	Degradations []obs.Degradation `json:"degradations,omitempty"`
	// Calibration maps scale-invariant measured shares (unreachable rate,
	// 404 share, single-day lifespan, ...) to their values, for comparison
	// against the paper's published targets (see PaperTargets).
	Calibration map[string]float64 `json:"calibration,omitempty"`
	// Artifacts maps artifact file name to the SHA-256 hex digest of its
	// content as stored under artifacts/.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// Timings is the machine-varying half of a run archive: wall/CPU per stage,
// the final metric snapshot (labeled vectors included), the SLO health
// evaluation, and the completion instant. Health lives here and not in
// Summary because rule values depend on wall-clock behaviour — the same
// config can pass on one machine and fire on a slower one.
type Timings struct {
	CreatedAt string            `json:"created_at,omitempty"`
	ElapsedNS int64             `json:"elapsed_ns"`
	Stages    []obs.StageTiming `json:"stages"`
	Metrics   obs.Snapshot      `json:"metrics"`
	Health    []health.Result   `json:"health,omitempty"`
	// Resources is the per-stage runtime high-water-mark table the resource
	// sampler collected (heap in use, RSS, goroutines, GC), empty when the
	// run sampled with -sample-interval 0. Machine-varying by nature,
	// which is exactly why it lives here and not in Summary.
	Resources []obs.ResourceStats `json:"resources,omitempty"`
	// Checkpoints is the run's crash-recovery lineage, nil when the run did
	// not checkpoint. It lives on the machine-varying side deliberately:
	// whether a run was interrupted and resumed must never move the golden
	// summary fingerprints.
	Checkpoints *RecoveryInfo `json:"checkpoints,omitempty"`
}

// RecoveryInfo records a run's checkpoint/resume lineage.
type RecoveryInfo struct {
	// Resumed is true when the run restored state from a prior invocation's
	// checkpoint instead of starting from scratch.
	Resumed bool `json:"resumed,omitempty"`
	// ResumedFrom is the checkpoint sequence number the run resumed from.
	ResumedFrom uint64 `json:"resumed_from_seq,omitempty"`
	// ResumedStage is the stage that checkpoint was taken in.
	ResumedStage string `json:"resumed_stage,omitempty"`
	// Checkpoints counts snapshots this invocation wrote.
	Checkpoints int `json:"checkpoints,omitempty"`
	// LastSeq and LastStage identify the newest snapshot written.
	LastSeq   uint64 `json:"last_seq,omitempty"`
	LastStage string `json:"last_stage,omitempty"`
}

// Archive is everything a finishing run hands to Write. Events is optional
// and, when set, is written both as events.jsonl and rendered as
// trace.json; Artifacts maps file name to rendered content.
type Archive struct {
	Summary   Summary
	Timings   Timings
	Events    *obs.EventLog
	Artifacts map[string]string
	// Profiles are the run's captured pprof snapshots, written under
	// profiles/ on the machine-varying side: they are never fingerprinted
	// and never participate in the summary, so a profiled run's
	// deterministic half is byte-identical to an unprofiled one's.
	Profiles []prof.Snapshot
	// Timeline is the run's windowed-telemetry sequence, written as
	// timeline.jsonl on the machine-varying side; nil when the run did not
	// record one (-sample-interval 0).
	Timeline []timeline.Window
}

// Record is an archive read back from disk. ModTime is the archive's
// on-disk modification time (of its timings file), which orders re-runs
// correctly even though identical configs overwrite one slot.
type Record struct {
	Dir     string
	Summary Summary
	Timings Timings
	ModTime time.Time
}

// ConfigHash hashes the flat config meta (sorted key=value lines) to a
// stable hex digest. Keys that record outcomes rather than configuration
// ("elapsed") must not be in meta; the caller strips them.
func ConfigHash(meta map[string]string) string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, meta[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunID derives the run directory name from a config hash.
func RunID(configHash string) string {
	if len(configHash) < 12 {
		return "r-" + configHash
	}
	return "r-" + configHash[:12]
}

// Fingerprint returns the SHA-256 hex digest of an artifact's content.
func Fingerprint(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// Write persists a into root/<run-id>/, filling in the summary's
// ConfigHash, ID, and artifact fingerprints if unset, and returns the run
// directory. An existing directory for the same ID is overwritten file by
// file — identical configs collide by design.
func Write(root string, a *Archive) (string, error) {
	fillSummary(a)
	dir := filepath.Join(root, a.Summary.ID)
	if err := WriteDir(dir, a); err != nil {
		return "", err
	}
	return dir, nil
}

// fillSummary derives the summary's ConfigHash, ID, and artifact
// fingerprints when unset.
func fillSummary(a *Archive) {
	if a.Summary.ConfigHash == "" {
		a.Summary.ConfigHash = ConfigHash(a.Summary.Meta)
	}
	if a.Summary.ID == "" {
		a.Summary.ID = RunID(a.Summary.ConfigHash)
	}
	if a.Summary.Artifacts == nil && len(a.Artifacts) > 0 {
		a.Summary.Artifacts = make(map[string]string, len(a.Artifacts))
		for name, content := range a.Artifacts {
			a.Summary.Artifacts[name] = Fingerprint(content)
		}
	}
}

// WriteDir persists a into exactly dir, regardless of the run ID — the
// scenario matrix uses this to key archive slots by cell ID. The summary is
// still completed (hash, ID, fingerprints) exactly as Write does.
//
// The write is atomic at directory granularity: everything lands in a
// sibling temp directory first, an existing checkpoints/ subdirectory is
// carried over, and a final rename swaps the slot — so a crash mid-archive
// leaves either the old complete archive or the new one, never a dir with a
// torn summary.json.
func WriteDir(dir string, a *Archive) error {
	fillSummary(a)
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("runs: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, ".tmp-"+filepath.Base(dir)+"-")
	if err != nil {
		return fmt.Errorf("runs: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename
	if err := writeArchiveFiles(tmp, a); err != nil {
		return err
	}
	// Preserve the run's checkpoint lineage across the slot swap.
	oldCkpt := filepath.Join(dir, CheckpointsDir)
	if _, err := os.Stat(oldCkpt); err == nil {
		if err := os.Rename(oldCkpt, filepath.Join(tmp, CheckpointsDir)); err != nil {
			return fmt.Errorf("runs: keep checkpoints: %w", err)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		trash, err := os.MkdirTemp(parent, ".trash-")
		if err != nil {
			return fmt.Errorf("runs: %w", err)
		}
		if err := os.Rename(dir, filepath.Join(trash, filepath.Base(dir))); err != nil {
			os.RemoveAll(trash)
			return fmt.Errorf("runs: %w", err)
		}
		defer os.RemoveAll(trash)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("runs: %w", err)
	}
	if d, err := os.Open(parent); err == nil {
		d.Sync() // best effort: persist the rename
		d.Close()
	}
	return nil
}

// writeArchiveFiles writes every archive file into dir (which must exist).
func writeArchiveFiles(dir string, a *Archive) error {
	if err := writeJSON(filepath.Join(dir, SummaryFile), a.Summary); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, TimingsFile), a.Timings); err != nil {
		return err
	}
	if a.Events != nil {
		if err := writeFile(filepath.Join(dir, EventsFile), a.Events.WriteJSONL); err != nil {
			return fmt.Errorf("runs: events: %w", err)
		}
		if err := writeFile(filepath.Join(dir, TraceFile), func(w io.Writer) error {
			return obs.WriteChromeTrace(w, a.Events.Events())
		}); err != nil {
			return fmt.Errorf("runs: trace: %w", err)
		}
	}
	if len(a.Artifacts) > 0 {
		adir := filepath.Join(dir, ArtifactsDir)
		if err := os.MkdirAll(adir, 0o755); err != nil {
			return fmt.Errorf("runs: %w", err)
		}
		for name, content := range a.Artifacts {
			if err := os.WriteFile(filepath.Join(adir, name), []byte(content), 0o644); err != nil {
				return fmt.Errorf("runs: artifact %s: %w", name, err)
			}
		}
	}
	if len(a.Profiles) > 0 {
		pdir := filepath.Join(dir, ProfilesDir)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return fmt.Errorf("runs: %w", err)
		}
		// Later snapshots of the same (stage, kind) overwrite earlier ones:
		// the archive keeps one file per name, the newest capture.
		for _, s := range a.Profiles {
			if err := os.WriteFile(filepath.Join(pdir, s.FileName()), s.Data, 0o644); err != nil {
				return fmt.Errorf("runs: profile %s: %w", s.FileName(), err)
			}
		}
	}
	if len(a.Timeline) > 0 {
		if err := writeFile(filepath.Join(dir, TimelineFile), func(w io.Writer) error {
			return timeline.WriteJSONL(w, a.Timeline)
		}); err != nil {
			return fmt.Errorf("runs: timeline: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it through render, reporting the first
// of the render and close errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := render(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("runs: %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("runs: %w", err)
	}
	return nil
}

// Read loads the summary and timings of one run directory.
func Read(dir string) (*Record, error) {
	rec := &Record{Dir: dir}
	if err := readJSON(filepath.Join(dir, SummaryFile), &rec.Summary); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, TimingsFile), &rec.Timings); err != nil {
		return nil, err
	}
	if st, err := os.Stat(filepath.Join(dir, TimingsFile)); err == nil {
		rec.ModTime = st.ModTime()
	} else if st, err := os.Stat(dir); err == nil {
		rec.ModTime = st.ModTime()
	}
	return rec, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("runs: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("runs: %s: %w", path, err)
	}
	return nil
}

// List loads every archive under root, newest first by on-disk modification
// time (CreatedAt breaks mtime ties — e.g. archives restored from a copy —
// and ID breaks those). Directories without a readable summary are skipped.
func List(root string) ([]*Record, error) {
	recs, _, err := ListWarn(root)
	return recs, err
}

// ListWarn is List plus a warning per skipped directory that looks like a
// partial or corrupt run — one a crash left behind mid-archive, or one whose
// summary no longer parses. Directories that merely aren't run archives
// (no run files at all) are skipped silently, and dot-prefixed entries
// (in-flight temp/trash dirs from the atomic writer) are invisible.
func ListWarn(root string) ([]*Record, []string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("runs: %w", err)
	}
	var out []*Record
	var warns []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		dir := filepath.Join(root, e.Name())
		rec, err := Read(dir)
		if err != nil {
			if looksPartial(dir) {
				warns = append(warns, fmt.Sprintf("%s: incomplete or corrupt run archive (%v)", e.Name(), err))
			}
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.After(out[j].ModTime)
		}
		if out[i].Timings.CreatedAt != out[j].Timings.CreatedAt {
			return out[i].Timings.CreatedAt > out[j].Timings.CreatedAt
		}
		return out[i].Summary.ID < out[j].Summary.ID
	})
	return out, warns, nil
}

// looksPartial reports whether dir holds the debris of an interrupted run —
// any run-archive file, a checkpoints directory, or a profiles directory —
// as opposed to being an unrelated directory that happens to live under the
// runs root.
func looksPartial(dir string) bool {
	for _, name := range []string{SummaryFile, TimingsFile, EventsFile, TraceFile, CheckpointsDir, ProfilesDir, TimelineFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// ReadArtifact returns the stored content of one artifact of a run.
func (r *Record) ReadArtifact(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(r.Dir, ArtifactsDir, name))
	if err != nil {
		return "", fmt.Errorf("runs: %w", err)
	}
	return string(b), nil
}

// ProfileInfo describes one captured pprof profile in a run archive's
// profiles/ directory.
type ProfileInfo struct {
	Name  string // file name, <stage>-<kind>.pb.gz
	Stage string
	Kind  string
	Size  int64
}

// ListProfiles enumerates the pprof profiles archived under dir/profiles/,
// sorted by name. An absent or empty profiles directory is not an error —
// most runs are unprofiled — so callers get a nil slice and can render
// "no profiles" without special-casing.
func ListProfiles(dir string) ([]ProfileInfo, error) {
	entries, err := os.ReadDir(filepath.Join(dir, ProfilesDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runs: %w", err)
	}
	var infos []ProfileInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pb.gz") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // file vanished between readdir and stat; skip it
		}
		stem := strings.TrimSuffix(e.Name(), ".pb.gz")
		stage, kind := stem, ""
		if i := strings.LastIndex(stem, "-"); i >= 0 {
			stage, kind = stem[:i], stem[i+1:]
		}
		infos = append(infos, ProfileInfo{Name: e.Name(), Stage: stage, Kind: kind, Size: fi.Size()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// ReadTimeline loads a run's windowed-telemetry sequence. An absent
// timeline is not an error — most runs don't record one — so callers get a
// nil slice and render "no timeline" without special-casing.
func ReadTimeline(dir string) ([]timeline.Window, error) {
	f, err := os.Open(filepath.Join(dir, TimelineFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runs: %w", err)
	}
	defer f.Close()
	ws, err := timeline.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("runs: %s: %w", TimelineFile, err)
	}
	return ws, nil
}

// TimelineAnomalies counts a run's timeline anomaly annotations: (count,
// true) when a timeline exists, (0, false) when none was recorded or it is
// unreadable — the list view renders the latter as "-".
func TimelineAnomalies(dir string) (int, bool) {
	ws, err := ReadTimeline(dir)
	if err != nil || ws == nil {
		return 0, false
	}
	return timeline.AnomalyCount(ws), true
}

// ProfilesLine renders a one-line inventory of a run's profiles, grouped by
// kind with per-kind stage counts and total bytes — compact enough for the
// show view's header block.
func ProfilesLine(infos []ProfileInfo) string {
	if len(infos) == 0 {
		return "profiles: none"
	}
	counts := map[string]int{}
	stages := map[string]bool{}
	var kinds []string
	var total int64
	for _, in := range infos {
		if counts[in.Kind] == 0 {
			kinds = append(kinds, in.Kind)
		}
		counts[in.Kind]++
		stages[in.Stage] = true
		total += in.Size
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s x%d", k, counts[k]))
	}
	return fmt.Sprintf("profiles: %d across %d stage(s) (%s; %d bytes)",
		len(infos), len(stages), strings.Join(parts, ", "), total)
}

// Stage returns the stage timing with the given path, or nil.
func (t *Timings) Stage(path string) *obs.StageTiming {
	for i := range t.Stages {
		if t.Stages[i].Path == path {
			return &t.Stages[i]
		}
	}
	return nil
}
