package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds emitted into an EventLog. Root spans (pipeline stages) emit
// stage-start/stage-end; nested spans emit span-start/span-end; the remaining
// kinds are point-in-time facts.
const (
	EventStageStart  = "stage-start"
	EventStageEnd    = "stage-end"
	EventSpanStart   = "span-start"
	EventSpanEnd     = "span-end"
	EventMetrics     = "metrics"     // embedded registry snapshot
	EventDegradation = "degradation" // one absorbed-failure record
	EventHealth      = "health"      // one SLO health-rule firing
	EventResource    = "resource"    // one runtime resource sample (heap/GC/RSS)
	EventNote        = "note"        // freeform annotation
)

// Event is one entry in a run's append-only event log. TUS is the monotonic
// time of the event in microseconds since the log was created, so ordering
// and spacing survive serialisation even when wall clocks jump; Seq breaks
// ties and makes truncation detectable.
type Event struct {
	Seq     int64     `json:"seq"`
	TUS     int64     `json:"t_us"`
	Type    string    `json:"type"`
	Name    string    `json:"name,omitempty"`
	WallNS  int64     `json:"wall_ns,omitempty"`
	CPUNS   int64     `json:"cpu_ns,omitempty"`
	Err     string    `json:"err,omitempty"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// EventLog is an append-only, concurrency-safe structured log of one run:
// stage boundaries, span lifecycles, metric snapshots, degradations, notes.
// Every emission serialises through one mutex into a single ordered stream,
// so concurrent workers can share a log freely; an optional sink receives
// each event as one JSONL line at emission time. A nil *EventLog is a valid
// no-op sink, mirroring the rest of the package.
type EventLog struct {
	mu     sync.Mutex
	start  time.Time
	seq    int64
	events []Event
	sink   io.Writer
	enc    *json.Encoder
}

// NewEventLog returns an empty log; its monotonic clock starts now.
func NewEventLog() *EventLog { return &EventLog{start: time.Now()} }

// StartTime returns the wall-clock instant the log's monotonic clock started.
func (l *EventLog) StartTime() time.Time {
	if l == nil {
		return time.Time{}
	}
	return l.start
}

// SetSink streams every subsequent event to w as one JSON line, in addition
// to retaining it in memory. Writes happen under the log's mutex, so lines
// never interleave.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.enc = json.NewEncoder(w)
	l.mu.Unlock()
}

// Emit appends a generic event of the given type.
func (l *EventLog) Emit(typ, name string, attrs ...Attr) {
	l.emit(Event{Type: typ, Name: name, Attrs: attrs})
}

// EmitMetrics appends a snapshot of reg under the given label (e.g. "final").
func (l *EventLog) EmitMetrics(name string, reg *Registry) {
	if l == nil {
		return
	}
	s := reg.Snapshot()
	l.emit(Event{Type: EventMetrics, Name: name, Metrics: &s})
}

// Degradation is one class of absorbed failure within one pipeline stage:
// Count occurrences of Kind (e.g. "conn-retries", "dropped-records")
// during Stage ("probe", "identify", ...). A resilient run is only
// trustworthy if it also says exactly how degraded it was.
type Degradation struct {
	Stage string `json:"stage"`
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// EmitDegradation appends one absorbed-failure record.
func (l *EventLog) EmitDegradation(d Degradation) {
	l.emit(Event{Type: EventDegradation, Name: d.Kind, Attrs: []Attr{
		{Key: "stage", Value: d.Stage},
		{Key: "count", Value: fmt.Sprint(d.Count)},
	}})
}

func (l *EventLog) emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.TUS = time.Since(l.start).Microseconds()
	l.events = append(l.events, e)
	if l.enc != nil {
		l.enc.Encode(e)
	}
}

// Len returns the number of events emitted so far.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the log so far, in emission order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// WriteJSONL renders the log as JSON Lines: one event object per line, in
// emission order.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("obs: eventlog: %w", err)
		}
	}
	return nil
}

// ContextWithEventLog attaches l to ctx; spans started from descendants of
// the returned context emit their start/end into l.
func ContextWithEventLog(ctx context.Context, l *EventLog) context.Context {
	return context.WithValue(ctx, eventLogKey, l)
}

// EventLogFrom returns the event log attached to ctx, or nil.
func EventLogFrom(ctx context.Context) *EventLog {
	l, _ := ctx.Value(eventLogKey).(*EventLog)
	return l
}
