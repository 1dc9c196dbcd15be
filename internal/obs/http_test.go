package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pdns_records_total").Add(11)
	tr := NewTrace()
	elog := NewEventLog()
	ctx := ContextWithEventLog(ContextWithTrace(context.Background(), tr), elog)
	_, sp := StartSpan(ctx, "identify")
	sp.End()
	elog.Emit(EventNote, "hello")
	srv := httptest.NewServer(Handler(reg, tr, elog))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 {
		t.Fatalf("/metrics = %d", code)
	} else {
		var s Snapshot
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("/metrics not JSON: %v", err)
		}
		if s.Counters["pdns_records_total"] != 11 {
			t.Fatalf("/metrics counters = %v", s.Counters)
		}
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"identify"`) {
		t.Fatalf("/trace = %d %q", code, body)
	}
	if code, body := get("/trace.json"); code != 200 {
		t.Fatalf("/trace.json = %d", code)
	} else {
		var events []TraceEvent
		if err := json.Unmarshal([]byte(body), &events); err != nil {
			t.Fatalf("/trace.json not a trace-event array: %v", err)
		}
		var haveX bool
		for _, e := range events {
			haveX = haveX || (e.Ph == "X" && e.Name == "identify")
		}
		if !haveX {
			t.Fatalf("/trace.json missing the identify span: %v", events)
		}
	}
	if code, body := get("/events"); code != 200 || !strings.Contains(body, `"note"`) {
		t.Fatalf("/events = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	// A named profile with ?seconds= is the delta over that window; its body
	// is a gzipped pprof protobuf for go tool pprof.
	if code, body := get("/debug/pprof/heap?seconds=1"); code != 200 || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/heap?seconds=1 = %d, body starts %q", code, body[:min(len(body), 16)])
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

// TestBuildInfoServedNotSnapshotted: the obs_build_info provenance gauge is
// injected into both live metric endpoints at render time but never enters
// the registry's own snapshot, keeping deterministic outputs build-invariant.
func TestBuildInfoServedNotSnapshotted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(1)
	srv := httptest.NewServer(Handler(reg, nil, nil))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	var served Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &served); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	bi, ok := served.GaugeVecs[BuildInfoMetric]
	if !ok {
		t.Fatalf("/metrics missing %s gauge vec: %+v", BuildInfoMetric, served.GaugeVecs)
	}
	goVersion, revision := BuildInfo()
	key := JoinSeriesKey([]string{goVersion, revision})
	if bi.Series[key] != 1 {
		t.Fatalf("%s series = %v, want %q=1", BuildInfoMetric, bi.Series, key)
	}
	if prom := get("/metrics.prom"); !strings.Contains(prom, BuildInfoMetric) || !strings.Contains(prom, goVersion) {
		t.Fatalf("/metrics.prom missing build info: %q", prom)
	}
	if _, ok := reg.Snapshot().GaugeVecs[BuildInfoMetric]; ok {
		t.Fatalf("%s leaked into the registry's own snapshot", BuildInfoMetric)
	}
}

// TestHandlerMounts: extra mounts serve at their patterns and appear on the
// index page; nil/empty mounts are skipped.
func TestHandlerMounts(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "dash-ok")
	})
	srv := httptest.NewServer(Handler(NewRegistry(), nil, nil,
		Mount{Pattern: "/dash", Handler: h},
		Mount{}, // ignored
	))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "dash-ok" {
		t.Fatalf("/dash = %q", b)
	}
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(idx), "/dash") {
		t.Fatalf("index missing /dash mount: %q", idx)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	s, err := Serve("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close() // idempotent
}
