package timeline

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDashServesLiveWindowsOverSSE: the acceptance-criteria path — /dash
// serves the HTML page, /dash/windows the JSON history, and /dash/sse
// replays captured windows then streams new ones as they close.
func TestDashServesLiveWindowsOverSSE(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStream()
	o := NewObserver(reg, Options{Interval: time.Second, Clock: NewFakeClock(t0), Stream: st})
	o.Start()
	defer o.Stop()
	reg.Counter("pdns_records_total").Add(7)
	o.tick(t0, false)

	srv := httptest.NewServer(obs.Handler(reg, nil, nil, DashMounts(st)...))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "EventSource") || !strings.Contains(string(page), "/dash/sse") {
		t.Fatalf("/dash page missing the SSE wiring: %q", page[:120])
	}

	resp, err = http.Get(srv.URL + "/dash/windows")
	if err != nil {
		t.Fatal(err)
	}
	var hist []Window
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatalf("/dash/windows not JSON: %v", err)
	}
	resp.Body.Close()
	if len(hist) != 1 || hist[0].Counters["pdns_records_total"] != 7 {
		t.Fatalf("/dash/windows = %+v", hist)
	}

	// SSE: read the replayed window, capture a new one mid-stream, read it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/dash/sse", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content type = %q", ct)
	}
	events := make(chan Window, 8)
	go func() {
		sc := bufio.NewScanner(sresp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var w Window
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &w) == nil {
				select {
				case events <- w:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	next := func() Window {
		t.Helper()
		select {
		case w := <-events:
			return w
		case <-ctx.Done():
			t.Fatal("timed out waiting for an SSE window")
			return Window{}
		}
	}
	if w := next(); w.Index != 0 || w.Counters["pdns_records_total"] != 7 {
		t.Fatalf("replayed window = %+v", w)
	}
	reg.Counter("pdns_records_total").Add(3)
	o.tick(t0, false)
	if w := next(); w.Index != 1 || w.Counters["pdns_records_total"] != 3 {
		t.Fatalf("live window = %+v", w)
	}
}

// TestDashDisabled: a nil stream serves an explanatory SSE comment and an
// empty window list instead of crashing or 404ing.
func TestDashDisabled(t *testing.T) {
	srv := httptest.NewServer(obs.Handler(obs.NewRegistry(), nil, nil, DashMounts(nil)...))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/dash/sse")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "disabled") {
		t.Fatalf("disabled sse = %q", b)
	}
	resp, err = http.Get(srv.URL + "/dash/windows")
	if err != nil {
		t.Fatal(err)
	}
	var ws []Window
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil || len(ws) != 0 {
		t.Fatalf("disabled windows = %v err=%v", ws, err)
	}
	resp.Body.Close()
}
