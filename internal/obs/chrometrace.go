package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// TraceEvent is one entry of the Chrome trace-event JSON Array Format, the
// interchange form understood by Perfetto and chrome://tracing. Spans export
// as complete events (ph "X"), point-in-time log entries as instants (ph
// "i"), and lane names as metadata (ph "M").
type TraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"` // microseconds
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTraceEvents renders an event log as trace events. A stage start
// opens a lane (tid) named after the stage, and a nested span takes the
// lane of the stage open when it starts, which holds because stages run one
// after another. Spans are complete events in start order; the matching end
// event supplies the duration, CPU, error and attributes, and a span whose
// end never arrived renders with zero duration. Every other event is an
// instant on lane 0. Timestamps are the log's own microseconds since it was
// created, so the trace opens near t=0 in any viewer.
func ChromeTraceEvents(events []Event) []TraceEvent {
	var out []TraceEvent
	open := map[string][]int{} // span name → indices in out of its unclosed starts
	lanes, lane := 0, 0
	for _, e := range events {
		switch e.Type {
		case EventStageStart, EventSpanStart:
			if e.Type == EventStageStart {
				lanes++
				lane = lanes
				out = append(out, TraceEvent{
					Name: "thread_name", Ph: "M", PID: 1, TID: lane,
					Args: map[string]string{"name": e.Name},
				})
			}
			open[e.Name] = append(open[e.Name], len(out))
			out = append(out, TraceEvent{Name: e.Name, Ph: "X", TS: e.TUS, PID: 1, TID: lane})
		case EventStageEnd, EventSpanEnd:
			starts := open[e.Name]
			if len(starts) == 0 {
				continue // an end whose start the log does not hold
			}
			open[e.Name] = starts[1:]
			sp := &out[starts[0]]
			sp.Dur = e.WallNS / 1e3
			sp.Args = spanArgs(e)
			if e.Type == EventStageEnd {
				lane = 0
			}
		default:
			args := map[string]string{"type": e.Type}
			for _, a := range e.Attrs {
				args[a.Key] = a.Value
			}
			out = append(out, TraceEvent{
				Name: e.Type + ":" + e.Name, Ph: "i", S: "p",
				TS: e.TUS, PID: 1, TID: 0, Args: args,
			})
		}
	}
	return out
}

// spanArgs collects a span end event's attributes, CPU and error.
func spanArgs(e Event) map[string]string {
	args := map[string]string{}
	for _, a := range e.Attrs {
		args[a.Key] = a.Value
	}
	if e.CPUNS > 0 {
		args["cpu"] = time.Duration(e.CPUNS).String()
	}
	if e.Err != "" {
		args["err"] = e.Err
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChromeTrace renders an event log as a Chrome trace-event JSON array,
// the format Perfetto's "Open trace file" accepts directly.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := ChromeTraceEvents(events)
	if out == nil {
		out = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return nil
}
