// Command scfruns audits the pipeline's run-history archives. Every scfpipe
// run archives itself under .runs/<run-id>/ (summary, calibration shares,
// artifact fingerprints, timings, event log, and its Chrome trace);
// scfruns reads those archives back, compares them, and turns the
// comparison into a CI verdict.
//
// Usage:
//
//	scfruns list                          # archives under -dir, newest first
//	scfruns show r-1a2b3c4d5e6f           # one run in full
//	scfruns diff r-aaaa r-bbbb            # every dimension, side by side
//	scfruns diff -json r-aaaa r-bbbb      # the same, machine-readable
//	scfruns gate -baseline internal/runs/testdata/golden
//	scfruns gate -baseline old/ new/ -wall-tol 3
//	scfruns gate -bench-base old.json -bench-new BENCH_pipeline.json
//	scfruns bench -i BENCH.txt -o BENCH.json
//	scfruns bench -i BENCH.txt -history BENCH_history.jsonl -label pr-7
//	scfruns timeline r-1a2b3c4d5e6f         # windowed telemetry + anomalies
//	scfruns timeline -diff r-aaaa r-bbbb    # when did behaviour diverge?
//
// A run argument is either a directory containing summary.json or a run ID
// resolved under -dir (default .runs, or $SCF_RUN_DIR). gate diffs the
// candidate (default: the baseline's run ID under -dir, since identical
// configs share an ID) against the baseline and exits 1 on any thresholded
// regression: stage wall time past ratio+floor, histogram p99 drift,
// per-provider probe error-rate growth or p99 drift (from the labeled
// metric vectors the timings snapshot carries), new/grown degradations,
// deterministic-artifact fingerprint changes, or calibration shares leaving
// the paper's acceptance bands.
//
// bench converts `go test -bench` text into the structured JSON
// BENCH_pipeline.json holds (appending a record to the BENCH_history.jsonl
// ledger with -history), stamped with goos, goarch, cpu, GOMAXPROCS and the
// Go version. gate's -bench-base/-bench-new compare two such files on both
// mean ns/op (-bench-tol) and mean allocs/op (-allocs-tol, a plain ratio
// ceiling, default 1.10x) so an allocation regression fails the gate even
// when wall-clock time hides it. Two files whose stamps differ, or either of
// whose stamps is incomplete, are not comparable: gate prints the first such
// field in place of the deltas and counts it as a violation.
//
// show lists the pprof profiles a `scfpipe -profile` run archived under
// profiles/ in one line; read the files themselves with `go tool pprof`
// (README "Continuous profiling").
//
// Exit codes: 0 success, 1 runtime error or gate violation, 2 usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs/timeline"
	"repro/internal/report"
	"repro/internal/runs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// errUsage marks a flag-parse failure whose message the flag package already
// printed; usageError carries a message run() still has to print. Both exit 2.
var errUsage = errors.New("usage")

type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// errGateFailed marks a gate verdict whose violation list cmdGate already
// printed; run() maps it to exit 1 without re-logging.
var errGateFailed = errors.New("gate failed")

// run dispatches one subcommand and returns the process exit code. It is the
// whole of main so the dispatch table, flag parsing, and exit-code contract
// are testable in-process.
func run(args []string) int {
	log.SetFlags(0)
	log.SetPrefix("scfruns: ")
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(args[1:])
	case "show":
		err = cmdShow(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	case "gate":
		err = cmdGate(args[1:])
	case "bench":
		err = cmdBench(args[1:])
	case "timeline":
		err = cmdTimeline(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		log.Printf("unknown subcommand %q", args[0])
		usage()
		return 2
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case errors.As(err, &ue):
		log.Print(ue.msg)
		return 2
	case errors.Is(err, errGateFailed):
		return 1
	default:
		log.Print(err)
		return 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: scfruns <list|show|diff|gate|bench|timeline> [flags] [args]

  list                     list archived runs under -dir, newest first
  show <run>               print one archive: config, stages, calibration
  diff <a> <b>             compare two archives dimension by dimension
  gate -baseline <run> [candidate]
                           diff + thresholds; exit 1 on regression
                           (-bench-base/-bench-new gate two bench JSONs
                           taken with the same stamp)
  bench -i in.txt -o out.json
                           parse 'go test -bench' text into structured JSON
                           (-history/-label append a ledger record)
  timeline <run>           render a run's windowed-telemetry timeline as a
                           deterministic Markdown table with anomaly callouts
                           (-json for raw windows, -o to write a file)
  timeline -diff <a> <b>   align two timelines window-by-window and localize
                           when their behaviour diverged

run arguments are directories holding summary.json, or run IDs under -dir
(default .runs, or $SCF_RUN_DIR). See 'scfruns <cmd> -h' for flags.`)
}

// parse wraps FlagSet.Parse, translating failures into the exit-2 sentinel
// while letting -h keep its exit-0 contract.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errUsage
	}
	return nil
}

// dirFlag registers the shared -dir flag on a subcommand's flag set.
func dirFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("SCF_RUN_DIR")
	if def == "" {
		def = ".runs"
	}
	return fs.String("dir", def, "run archive root (default: $SCF_RUN_DIR or .runs)")
}

// resolve turns a run argument into an archive directory: a path that holds
// summary.json wins, otherwise the argument is a run ID under root.
func resolve(root, arg string) (string, error) {
	if _, err := os.Stat(filepath.Join(arg, runs.SummaryFile)); err == nil {
		return arg, nil
	}
	dir := filepath.Join(root, arg)
	if _, err := os.Stat(filepath.Join(dir, runs.SummaryFile)); err == nil {
		return dir, nil
	}
	return "", fmt.Errorf("no run archive at %s or %s (need %s)", arg, dir, runs.SummaryFile)
}

// resolvePartial is resolve for directories an interrupted run left behind:
// no summary.json, but provenance debris (events, checkpoints) worth
// showing. It only accepts directories that hold at least one such file
// so a typo'd run ID still errors instead of "showing" an empty dir.
func resolvePartial(root, arg string) (string, error) {
	for _, dir := range []string{arg, filepath.Join(root, arg)} {
		for _, name := range []string{runs.EventsFile, runs.TimingsFile, runs.CheckpointsDir} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("no run archive at %s or %s (need %s)", arg, filepath.Join(root, arg), runs.SummaryFile)
}

func load(root, arg string) (*runs.Record, error) {
	dir, err := resolve(root, arg)
	if err != nil {
		return nil, err
	}
	return runs.Read(dir)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dir := dirFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	recs, warns, err := runs.ListWarn(*dir)
	if err != nil {
		return err
	}
	for _, w := range warns {
		log.Printf("warning: %s", w)
	}
	if len(recs) == 0 {
		fmt.Printf("no runs under %s\n", *dir)
		return nil
	}
	t := report.NewTable("Archived runs ("+*dir+")", "Run", "Tool", "Created", "Elapsed", "Seed", "Scale", "Chaos", "Degr", "Anom", "Cal")
	for _, r := range recs {
		anom := "-"
		if n, ok := runs.TimelineAnomalies(r.Dir); ok {
			anom = fmt.Sprintf("%d", n)
		}
		t.AddRow(r.Summary.ID, r.Summary.Tool, r.Timings.CreatedAt,
			time.Duration(r.Timings.ElapsedNS).Round(time.Millisecond).String(),
			r.Summary.Meta["seed"], r.Summary.Meta["scale"], r.Summary.Meta["chaos"],
			len(r.Summary.Degradations), anom, calVerdict(r.Summary.Calibration))
	}
	fmt.Println(t.String())
	return nil
}

// calVerdict reduces a run's calibration shares to one list-column verdict:
// "ok" when every share with a published paper target sits inside its band,
// "FAIL(n)" counting the shares outside, "-" when nothing is auditable.
func calVerdict(cal map[string]float64) string {
	audited, failed := 0, 0
	for k, v := range cal {
		t, ok := runs.TargetFor(k)
		if !ok {
			continue
		}
		audited++
		if !t.Contains(v) {
			failed++
		}
	}
	switch {
	case audited == 0:
		return "-"
	case failed == 0:
		return "ok"
	default:
		return fmt.Sprintf("FAIL(%d)", failed)
	}
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw summary and timings as JSON")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{"show: want exactly one run argument"}
	}
	rec, err := load(*dir, fs.Arg(0))
	if err != nil {
		// An interrupted run leaves provenance (events, checkpoints)
		// without a summary; show what is readable instead of
		// refusing — the lineage table is exactly what a post-crash
		// investigation needs.
		pdir, perr := resolvePartial(*dir, fs.Arg(0))
		if perr != nil || *asJSON {
			return err
		}
		log.Printf("warning: %s: incomplete or corrupt run archive (%v); showing what is readable", fs.Arg(0), err)
		fmt.Printf("run %s (partial archive at %s)\n\n", filepath.Base(pdir), pdir)
		showCheckpoints(pdir, nil)
		return nil
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec.Summary); err != nil {
			return err
		}
		return enc.Encode(rec.Timings)
	}
	fmt.Printf("run %s (%s) — %s, elapsed %v\n", rec.Summary.ID, rec.Summary.Tool,
		rec.Timings.CreatedAt, time.Duration(rec.Timings.ElapsedNS).Round(time.Millisecond))
	fmt.Printf("config %s\n\n", rec.Summary.ConfigHash[:12])

	mt := report.NewTable("Config", "Key", "Value")
	for _, k := range sortedKeys(rec.Summary.Meta) {
		mt.AddRow(k, rec.Summary.Meta[k])
	}
	fmt.Println(mt.String())

	fmt.Println(report.StageTimings(rec.Timings.Stages))

	if len(rec.Summary.Calibration) > 0 {
		ct := report.NewTable("Calibration vs paper", "Metric", "Paper", "Measured", "Holds")
		for _, k := range sortedKeys(rec.Summary.Calibration) {
			v := rec.Summary.Calibration[k]
			paper, holds := "-", "-"
			if t, ok := runs.TargetFor(k); ok {
				paper = fmt.Sprintf("%.4f", t.Paper)
				holds = "yes"
				if !t.Contains(v) {
					holds = "**NO**"
				}
			}
			ct.AddRow(k, paper, fmt.Sprintf("%.4f", v), holds)
		}
		fmt.Println(ct.String())
	}

	if len(rec.Summary.Degradations) > 0 {
		dt := report.NewTable("Degradations absorbed", "Stage", "Kind", "Count")
		for _, d := range rec.Summary.Degradations {
			dt.AddRow(d.Stage, d.Kind, d.Count)
		}
		fmt.Println(dt.String())
	}

	if len(rec.Summary.Artifacts) > 0 {
		at := report.NewTable("Artifacts", "File", "SHA-256", "Gated")
		for _, k := range sortedKeys(rec.Summary.Artifacts) {
			gated := ""
			if runs.DeterministicArtifacts[k] {
				gated = "yes"
			}
			at.AddRow(k, rec.Summary.Artifacts[k][:12], gated)
		}
		fmt.Println(at.String())
	}

	if infos, perr := runs.ListProfiles(rec.Dir); perr == nil && len(infos) > 0 {
		fmt.Println(runs.ProfilesLine(infos))
		fmt.Println()
	}

	showCheckpoints(rec.Dir, rec.Timings.Checkpoints)
	return nil
}

// showCheckpoints prints a run's crash-recovery lineage: the summary line
// recorded in timings.json (when present) and one row per on-disk checkpoint
// file, including corrupt ones a resume would skip over.
func showCheckpoints(dir string, ri *runs.RecoveryInfo) {
	if ri != nil {
		line := fmt.Sprintf("Recovery: %d checkpoint(s) written, last seq %d (%s)",
			ri.Checkpoints, ri.LastSeq, ri.LastStage)
		if ri.Resumed {
			line += fmt.Sprintf("; resumed from seq %d (%s)", ri.ResumedFrom, ri.ResumedStage)
		}
		fmt.Println(line)
		fmt.Println()
	}
	infos := checkpoint.Inspect(filepath.Join(dir, runs.CheckpointsDir))
	if len(infos) == 0 {
		return
	}
	t := report.NewTable("Checkpoint lineage", "File", "Seq", "Stage", "Rows", "Stages", "Bytes", "Status")
	for _, fi := range infos {
		status := "ok"
		switch {
		case fi.Err != "":
			status = "CORRUPT: " + fi.Err
		case fi.ResumedFromSeq > 0:
			status = fmt.Sprintf("resumed from seq %d", fi.ResumedFromSeq)
		}
		t.AddRow(fi.Name, fi.Seq, fi.Stage, fi.Rows, fi.Stages, fi.Size, status)
	}
	fmt.Println(t.String())
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the diff report as JSON")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usageError{"diff: want exactly two run arguments (baseline, candidate)"}
	}
	a, err := load(*dir, fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(*dir, fs.Arg(1))
	if err != nil {
		return err
	}
	rep := runs.Diff(a, b)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Println(rep.Render())
	return nil
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	dir := dirFlag(fs)
	def := runs.DefaultGateOptions()
	var (
		baseline   = fs.String("baseline", "", "baseline run (directory or run ID; required unless only benching)")
		wallTol    = fs.Float64("wall-tol", def.WallTol, "stage wall regression tolerance as a ratio above 1 (negative disables)")
		wallFloor  = fs.Duration("wall-floor", def.WallFloor, "minimum absolute wall delta before the ratio check applies")
		p99Tol     = fs.Float64("p99-tol", def.P99Tol, "histogram p99 regression tolerance as a ratio above 1 (negative disables)")
		minSamples = fs.Int64("min-samples", def.MinSamples, "histogram observations required on both sides before p99 gating")
		errTol     = fs.Float64("err-tol", def.ErrRateTol, "per-provider probe error-rate growth tolerance, absolute (negative disables provider gating)")
		noDegr     = fs.Bool("no-degradations", false, "skip degradation-drift gating")
		noArt      = fs.Bool("no-artifacts", false, "skip deterministic-artifact fingerprint gating")
		noCal      = fs.Bool("no-calibration", false, "skip paper-calibration gating")
		benchBase  = fs.String("bench-base", "", "baseline bench JSON (from 'scfruns bench')")
		benchNew   = fs.String("bench-new", "", "candidate bench JSON to gate against -bench-base")
		benchTol   = fs.Float64("bench-tol", 0.5, "mean ns/op regression tolerance as a ratio above 1")
		allocsTol  = fs.Float64("allocs-tol", 1.10, "mean allocs/op regression ceiling as a plain ratio (<= 0 disables)")
		quiet      = fs.Bool("quiet", false, "suppress the full diff; print only violations")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	opts := runs.GateOptions{
		WallTol:      *wallTol,
		WallFloor:    *wallFloor,
		P99Tol:       *p99Tol,
		MinSamples:   *minSamples,
		ErrRateTol:   *errTol,
		Degradations: !*noDegr,
		Artifacts:    !*noArt,
		Calibration:  !*noCal,
	}
	var violations []string

	if *baseline != "" {
		a, err := load(*dir, *baseline)
		if err != nil {
			return err
		}
		// Identical configs share a run ID, so the candidate defaults to the
		// baseline's slot under -dir: "did the same experiment regress?"
		candArg := a.Summary.ID
		if fs.NArg() > 0 {
			candArg = fs.Arg(0)
		}
		b, err := load(*dir, candArg)
		if err != nil {
			return fmt.Errorf("candidate: %w", err)
		}
		rep := runs.Diff(a, b)
		if !*quiet {
			fmt.Println(rep.Render())
			fmt.Println()
		}
		violations = append(violations, rep.Gate(opts)...)
	} else if fs.NArg() > 0 {
		return usageError{"gate: candidate given without -baseline"}
	}

	if (*benchBase == "") != (*benchNew == "") {
		return usageError{"gate: -bench-base and -bench-new must be given together"}
	}
	if *benchBase != "" {
		ba, err := readBenchFile(*benchBase)
		if err != nil {
			return err
		}
		bb, err := readBenchFile(*benchNew)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Println(runs.RenderBenchDiff(ba, bb))
		}
		violations = append(violations, runs.GateBench(ba, bb, *benchTol, *allocsTol)...)
	}

	if *baseline == "" && *benchBase == "" {
		return usageError{"gate: nothing to gate (need -baseline and/or -bench-base/-bench-new)"}
	}

	if len(violations) > 0 {
		fmt.Printf("GATE FAILED: %d violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Printf("  - %s\n", v)
		}
		return errGateFailed
	}
	fmt.Println("GATE PASSED")
	return nil
}

func readBenchFile(path string) (*runs.BenchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return runs.ReadBenchJSON(f)
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	in := fs.String("i", "", "bench text input file (default: stdin)")
	out := fs.String("o", "", "JSON output file (default: stdout)")
	history := fs.String("history", "", "append a ledger record to this JSONL file")
	label := fs.String("label", "", "label for the -history record (e.g. a git revision)")
	if err := parse(fs, args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	set, err := runs.ParseBench(r)
	if err != nil {
		return err
	}
	set.GoVersion = runtime.Version()
	if *history != "" {
		e := runs.HistoryEntryFrom(set, *label, time.Now().UTC().Format(time.RFC3339))
		if err := runs.AppendHistory(*history, e); err != nil {
			return err
		}
		log.Printf("appended %d benchmark means to %s", len(e.Bench), *history)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return set.WriteJSON(w)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cmdTimeline renders a run's windowed-telemetry timeline (timeline.jsonl)
// as a deterministic Markdown table with anomaly and breach callouts, or —
// with -diff — aligns two runs' timelines window-by-window to localize when
// their behaviour diverged. The render is a pure function of the archived
// bytes: five renders of the same archive are byte-identical.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw window records as a JSON array")
	out := fs.String("o", "", "write the rendered output to this file instead of stdout")
	diff := fs.Bool("diff", false, "align two runs window-by-window")
	if err := parse(fs, args); err != nil {
		return err
	}
	var rendered string
	switch {
	case *diff:
		if fs.NArg() != 2 {
			return usageError{"timeline -diff: want exactly two run arguments"}
		}
		a, err := load(*dir, fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := load(*dir, fs.Arg(1))
		if err != nil {
			return err
		}
		aws, err := runs.ReadTimeline(a.Dir)
		if err != nil {
			return err
		}
		bws, err := runs.ReadTimeline(b.Dir)
		if err != nil {
			return err
		}
		if *asJSON {
			return usageError{"timeline: -json and -diff are mutually exclusive"}
		}
		rendered = report.RenderTimelineDiff(a.Summary.ID, b.Summary.ID, aws, bws)
	default:
		if fs.NArg() != 1 {
			return usageError{"timeline: want exactly one run argument"}
		}
		rec, err := load(*dir, fs.Arg(0))
		if err != nil {
			return err
		}
		ws, err := runs.ReadTimeline(rec.Dir)
		if err != nil {
			return err
		}
		if *asJSON {
			if ws == nil {
				ws = []timeline.Window{}
			}
			b, err := json.MarshalIndent(ws, "", "  ")
			if err != nil {
				return err
			}
			rendered = string(b) + "\n"
		} else {
			rendered = report.RenderTimeline(rec.Summary.ID, ws)
		}
	}
	if *out != "" {
		return os.WriteFile(*out, []byte(rendered), 0o644)
	}
	fmt.Print(rendered)
	return nil
}
