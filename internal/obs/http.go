package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler serves live introspection for a running pipeline:
//
//	/metrics        registry snapshot as indented JSON (expvar-style)
//	/metrics.prom   registry in Prometheus text exposition format
//	/trace          current span tree as JSON
//	/trace.json     event log so far as a Chrome trace-event array
//	                (open it in Perfetto or chrome://tracing)
//	/events         structured event log so far, as JSON Lines
//	/debug/pprof/*  the standard net/http/pprof profiles; a named profile
//	                with ?seconds=N (/debug/pprof/heap?seconds=5, say) is
//	                the delta over that window, for go tool pprof to read
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
		fmt.Fprintln(w, "pipeline introspection:\n  /metrics\n  /metrics.prom\n  /trace\n  /trace.json\n  /events\n  /debug/pprof/"+extra)
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
