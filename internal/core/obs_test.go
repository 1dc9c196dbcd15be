package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/obs"
)

// stageNames flattens root span names in order.
func stageNames(recs []obs.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

// TestRunStageSpans checks the shared run produced the full instrumented
// stage sequence with non-zero wall durations, and that the archive's
// summary and timings carry it all.
func TestRunStageSpans(t *testing.T) {
	r := sharedRun(t)
	want := []string{"substrate", "identify", "probe", "sanitise", "cluster", "classify", "assess", "disclosure"}
	got := stageNames(r.Stages)
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
		if r.Stages[i].WallNS <= 0 {
			t.Errorf("stage %q wall = %d, want > 0", want[i], r.Stages[i].WallNS)
		}
	}

	arch := r.BuildArchive("test", nil)
	if arch.Summary.Meta["seed"] != "1" {
		t.Fatalf("summary meta = %v", arch.Summary.Meta)
	}
	wall := map[string]int64{}
	for _, s := range arch.Timings.Stages {
		wall[s.Path] = s.WallNS
	}
	for _, name := range want {
		if wall[name] <= 0 {
			t.Errorf("timings stage %q has zero wall time", name)
		}
	}

	// Substrate metrics must have flowed into the run registry.
	s := r.Metrics.Snapshot()
	if s.Counters["pdns_records_scanned_total"] == 0 {
		t.Error("no pdns records counted")
	}
	if s.Counters["probe_requests_total"] == 0 {
		t.Error("no probe requests counted")
	}
	if s.Counters["dnssim_lookup_cache_hits_total"] == 0 {
		t.Error("resolver lookup cache never hit")
	}
	if s.Counters["faas_cold_starts_total"] == 0 {
		t.Error("no cold starts counted")
	}
	if s.Histograms["probe_request_seconds"].Count == 0 {
		t.Error("empty probe latency histogram")
	}
}

// TestRunContextCancel verifies a cancelled context aborts the pipeline
// cleanly at the end of the stage it interrupts: partial results come back
// with the context error wrapped as "core: <stage>: ...", the interrupted
// stage's span records the cancellation, no later stage starts, and the
// interrupted stage writes no checkpoint. A pre-cancelled context stops at
// the first boundary check, after substrate; a cancel at the end of
// substrate stops emission inside identify and leaves substrate's
// checkpoint the newest; a cancel at the end of identify interrupts probe;
// one at the end of sanitise interrupts cluster, a stage that never looks
// at the context itself.
func TestRunContextCancel(t *testing.T) {
	cases := []struct {
		cancelAfter string // "" cancels before the run starts
		stopped     string // the stage the error names
		lastCkpt    string // the newest boundary checkpoint
	}{
		{"", "substrate", ""},
		{"substrate", "identify", "substrate"},
		{"identify", "probe", "identify"},
		{"sanitise", "cluster", "sanitise"},
	}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		if c.cancelAfter == "" {
			cancel()
		}
		elog := obs.NewEventLog()
		elog.SetSink(cancelAt{stage: c.cancelAfter, cancel: cancel})
		res, err := RunContext(obs.ContextWithEventLog(ctx, elog), Config{
			Seed:          2,
			Scale:         0.002,
			ProbeTimeout:  500 * time.Millisecond,
			SkipC2Scan:    true,
			CheckpointDir: t.TempDir(),
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %q: err = %v, want context.Canceled", c.cancelAfter, err)
		}
		if want := "core: " + c.stopped + ": "; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("cancel after %q: err = %q, want it to name the stage (%q)", c.cancelAfter, err, want)
		}
		if res == nil {
			t.Fatal("want partial results alongside the error")
		}
		names := stageNames(res.Stages)
		if last := res.Stages[len(res.Stages)-1]; last.Name != c.stopped || last.Err == "" {
			t.Fatalf("cancel after %q: stages %v, last %s err %q — want %s last, recording the cancellation",
				c.cancelAfter, names, last.Name, last.Err, c.stopped)
		}
		if got := res.Recovery.LastStage; got != c.lastCkpt {
			t.Fatalf("cancel after %q: newest checkpoint at %q, want %q", c.cancelAfter, got, c.lastCkpt)
		}
		// The event log, all an aborted run leaves, records the
		// cancellation on the interrupted stage.
		var logged bool
		for _, e := range elog.Events() {
			logged = logged || (e.Type == obs.EventStageEnd && e.Name == c.stopped && e.Err != "")
		}
		if !logged {
			t.Fatalf("cancel after %q: event log has no failed %s stage-end", c.cancelAfter, c.stopped)
		}
	}
}

// cancelAt is an event-log sink that cancels the run as stage ends.
type cancelAt struct {
	stage  string
	cancel context.CancelFunc
}

func (c cancelAt) Write(p []byte) (int, error) {
	var e obs.Event
	if json.Unmarshal(p, &e) == nil && e.Type == obs.EventStageEnd && e.Name == c.stage {
		c.cancel()
	}
	return len(p), nil
}

// TestRunTraceOnContext verifies caller-supplied traces receive the stage
// spans (this is how scfpipe serves /trace live).
func TestRunTraceOnContext(t *testing.T) {
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	res, err := RunContext(ctx, Config{
		Seed: 3, Scale: 0.001, SkipC2Scan: true,
		ProbeTimeout: 500 * time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != tr || res.Metrics != reg {
		t.Fatal("run did not adopt the caller's trace/registry")
	}
	if len(tr.Records()) == 0 {
		t.Fatal("caller trace received no spans")
	}
}

// TestMaxClusterDocsSemantics pins the repaired config contract:
// 0 = default cap of 4000, negative = no cap, positive = that cap.
func TestMaxClusterDocsSemantics(t *testing.T) {
	if got := (Config{}).withDefaults().MaxClusterDocs; got != 4000 {
		t.Fatalf("zero → %d, want default 4000", got)
	}
	if got := (Config{MaxClusterDocs: -1}).withDefaults().MaxClusterDocs; got != -1 {
		t.Fatalf("negative → %d, want preserved (no cap)", got)
	}
	if got := (Config{MaxClusterDocs: 7}).withDefaults().MaxClusterDocs; got != 7 {
		t.Fatalf("positive → %d, want preserved", got)
	}

	docs := make([]string, 6)
	types := make([]content.Type, 6)
	for i := range docs {
		docs[i] = "alpha beta gamma delta"
		types[i] = content.Plaintext
	}
	capped := clusterByType(docs, types, Config{MaxClusterDocs: 2, ClusterThreshold: 0.1})
	uncapped := clusterByType(docs, types, Config{MaxClusterDocs: -1, ClusterThreshold: 0.1})
	if capped[content.Plaintext] == 0 || uncapped[content.Plaintext] == 0 {
		t.Fatalf("clustering produced nothing: capped=%v uncapped=%v", capped, uncapped)
	}
}
