package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// sampleEvents is a two-stage log: identify with attributes and CPU, then
// probe, which fails and holds a nested sweep span, with a degradation
// instant in between.
func sampleEvents() []Event {
	return []Event{
		{Seq: 1, TUS: 10, Type: EventStageStart, Name: "identify"},
		{Seq: 2, TUS: 150_010, Type: EventStageEnd, Name: "identify", WallNS: 150e6, CPUNS: 100e6,
			Attrs: []Attr{{Key: "records", Value: "1234"}}},
		{Seq: 3, TUS: 150_100, Type: EventStageStart, Name: "probe"},
		{Seq: 4, TUS: 250_000, Type: EventSpanStart, Name: "sweep"},
		{Seq: 5, TUS: 300_000, Type: EventDegradation, Name: "conn-retries",
			Attrs: []Attr{{Key: "stage", Value: "probe"}, {Key: "count", Value: "2"}}},
		{Seq: 6, TUS: 2_150_000, Type: EventSpanEnd, Name: "sweep", WallNS: 19e8},
		{Seq: 7, TUS: 2_150_100, Type: EventStageEnd, Name: "probe", WallNS: 2e9, CPUNS: 12e8,
			Err: "context canceled"},
	}
}

func TestChromeTraceEvents(t *testing.T) {
	events := ChromeTraceEvents(sampleEvents())
	byName := map[string]TraceEvent{}
	lanes := map[int]string{}
	var completes, instants int
	for _, e := range events {
		switch e.Ph {
		case "X":
			completes++
			byName[e.Name] = e
		case "i":
			instants++
			byName[e.Name] = e
		case "M":
			lanes[e.TID] = e.Args["name"]
		}
	}
	if completes != 3 || instants != 1 {
		t.Fatalf("complete events = %d, instants = %d, want 3 and 1", completes, instants)
	}
	id, probe, sweep := byName["identify"], byName["probe"], byName["sweep"]
	if id.TS != 10 || probe.TS != 150_100 || sweep.TS != 250_000 {
		t.Fatalf("ts = %d/%d/%d, want the start events' t_us", id.TS, probe.TS, sweep.TS)
	}
	if lanes[id.TID] != "identify" || lanes[probe.TID] != "probe" || id.TID == probe.TID {
		t.Fatalf("lanes = %v, identify on %d, probe on %d: want one named lane per stage", lanes, id.TID, probe.TID)
	}
	if sweep.TID != probe.TID {
		t.Fatalf("sweep on lane %d, want the open stage's lane %d", sweep.TID, probe.TID)
	}
	if probe.Dur != 2_000_000 || sweep.Dur != 1_900_000 {
		t.Fatalf("dur = %d/%d us", probe.Dur, sweep.Dur)
	}
	if probe.Args["err"] != "context canceled" || probe.Args["cpu"] != "1.2s" {
		t.Fatalf("probe args = %v", probe.Args)
	}
	if id.Args["records"] != "1234" || id.Args["cpu"] != "100ms" {
		t.Fatalf("identify args = %v", id.Args)
	}
	if sweep.Args != nil {
		t.Fatalf("sweep args = %v, want none (nested spans record no CPU)", sweep.Args)
	}
	deg := byName["degradation:conn-retries"]
	if deg.TID != 0 || deg.TS != 300_000 || deg.S != "p" ||
		deg.Args["type"] != EventDegradation || deg.Args["count"] != "2" {
		t.Fatalf("degradation instant = %+v", deg)
	}
}

// TestChromeTraceUnclosedSpans: spans whose end never reached the log (an
// interrupted run) render with zero duration, in start order.
func TestChromeTraceUnclosedSpans(t *testing.T) {
	events := ChromeTraceEvents([]Event{
		{Seq: 1, TUS: 5, Type: EventStageStart, Name: "identify"},
		{Seq: 2, TUS: 6, Type: EventSpanStart, Name: "emit-shard-0"},
		{Seq: 3, TUS: 7, Type: EventSpanStart, Name: "emit-shard-1"},
		{Seq: 4, TUS: 9, Type: EventSpanEnd, Name: "emit-shard-1", WallNS: 2000},
	})
	var got []TraceEvent
	for _, e := range events {
		if e.Ph == "X" {
			got = append(got, e)
		}
	}
	want := []struct {
		name string
		dur  int64
	}{{"identify", 0}, {"emit-shard-0", 0}, {"emit-shard-1", 2}}
	if len(got) != len(want) {
		t.Fatalf("spans = %+v", got)
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Dur != w.dur {
			t.Fatalf("span %d = %+v, want %s dur %d", i, got[i], w.name, w.dur)
		}
	}
}

// TestChromeTraceInstantsFromLog renders what live spans emit: the stage's
// start and end pair into one complete event, and only the degradation
// becomes an instant.
func TestChromeTraceInstantsFromLog(t *testing.T) {
	l := NewEventLog()
	ctx := ContextWithEventLog(context.Background(), l)
	_, sp := StartSpan(ctx, "stage")
	l.EmitDegradation(Degradation{Stage: "probe", Kind: "conn-retries", Count: 2})
	sp.End()

	var instants, spans int
	for _, e := range ChromeTraceEvents(l.Events()) {
		switch e.Ph {
		case "i":
			instants++
			if e.TID != 0 || e.Name != "degradation:conn-retries" {
				t.Fatalf("instant = %+v", e)
			}
		case "X":
			spans++
		}
	}
	if instants != 1 || spans != 1 {
		t.Fatalf("instants = %d, spans = %d, want 1 and 1", instants, spans)
	}
}

func TestWriteChromeTraceValidArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output is not a JSON array of events: %v", err)
	}
	for i, e := range back {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
	}

	// An empty log must still be a valid (empty) array, not "null".
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); s != "[]\n" {
		t.Fatalf("empty trace = %q, want []", s)
	}
}
