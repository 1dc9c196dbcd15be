package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	rpprof "runtime/pprof"

	profdec "repro/internal/prof"
)

// Handler serves live introspection for a running pipeline:
//
//	/metrics        registry snapshot as indented JSON (expvar-style)
//	/metrics.prom   registry in Prometheus text exposition format
//	/trace          current span tree as JSON
//	/trace.json     event log so far as a Chrome trace-event array
//	                (open it in Perfetto or chrome://tracing)
//	/events         structured event log so far, as JSON Lines
//	/debug/pprof/*  the standard net/http/pprof profiles
//	/debug/pprof/delta-heap
//	                heap growth over a window: two heap snapshots
//	                ?seconds= apart (default 3, clamped to [1,30]),
//	                diffed per function and rendered as text
//	/               a plain-text index of the above
//
// Any of reg, tr, elog may be nil; the corresponding endpoint then serves an
// empty document. Extra mounts (the timeline dashboard, say) attach their
// handlers at the given patterns and are listed on the index page.
//
// Both metric endpoints serve the registry snapshot with the obs_build_info
// provenance gauge (Go version, VCS revision) injected at render time; the
// gauge never enters the registry itself, so deterministic snapshots stay
// byte-identical across binaries built from different commits.
func Handler(reg *Registry, tr *Trace, elog *EventLog, mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(WithBuildInfo(reg.Snapshot()))
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteSnapshotPrometheus(w, WithBuildInfo(reg.Snapshot()))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tr.Records())
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, elog.Events())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		elog.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/delta-heap", deltaHeap)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extra := ""
	for _, m := range mounts {
		if m.Handler == nil || m.Pattern == "" {
			continue
		}
		mux.Handle(m.Pattern, m.Handler)
		extra += "\n  " + m.Pattern
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "pipeline introspection:\n  /metrics\n  /metrics.prom\n  /trace\n  /trace.json\n  /events\n  /debug/pprof/\n  /debug/pprof/delta-heap"+extra)
	})
	return mux
}

// Mount attaches an extra handler to the introspection mux — the timeline
// dashboard mounts itself this way, which keeps obs free of an import cycle
// on obs/timeline.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// deltaHeap serves the heap growth over a short window: it captures a heap
// profile, waits ?seconds= (default 3, clamped to [1,30]), captures again,
// and renders the per-function inuse_space delta — "what grew while you
// watched" — without needing the pprof CLI on the observing machine.
func deltaHeap(w http.ResponseWriter, r *http.Request) {
	secs := 3
	if v := r.URL.Query().Get("seconds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "seconds: not an integer", http.StatusBadRequest)
			return
		}
		secs = n
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	capture := func() (*profdec.Profile, error) {
		var buf bytes.Buffer
		if err := rpprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			return nil, err
		}
		return profdec.Decode(buf.Bytes())
	}
	base, err := capture()
	if err != nil {
		http.Error(w, "delta-heap: "+err.Error(), http.StatusInternalServerError)
		return
	}
	select {
	case <-time.After(time.Duration(secs) * time.Second):
	case <-r.Context().Done():
		return // client went away; nothing to serve
	}
	cand, err := capture()
	if err != nil {
		http.Error(w, "delta-heap: "+err.Error(), http.StatusInternalServerError)
		return
	}
	d := profdec.DiffFlat(base, cand, "inuse_space", 0)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "heap growth over %ds (inuse_space delta per function):\n\n", secs)
	fmt.Fprint(w, profdec.RenderGrowth(d, 25))
}

// Server is a running introspection endpoint.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	once sync.Once
}

// Addr returns the address the server is listening on (useful when started
// with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() { err = s.srv.Close() })
	return err
}

// Serve starts the introspection endpoint on addr (e.g. ":6060") in a
// background goroutine and returns immediately. elog may be nil.
func Serve(addr string, reg *Registry, tr *Trace, elog *EventLog, mounts ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: Handler(reg, tr, elog, mounts...)}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}
