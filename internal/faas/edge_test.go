package faas

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestConnPairDeadlineFires(t *testing.T) {
	c, s := newConnPair("client", "server")
	defer c.Close()
	defer s.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the deadline: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("deadline fired after %v, before it was due", el)
	}
	// Clearing the deadline re-arms reads.
	c.SetReadDeadline(time.Time{})
	s.Write([]byte("x"))
	if n, err := c.Read(make([]byte, 4)); n != 1 || err != nil {
		t.Errorf("read after clearing the deadline = %d, %v", n, err)
	}
	c.SetWriteDeadline(time.Now().Add(-time.Second))
	if _, err := c.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("write past the deadline: err = %v", err)
	}
}

func TestConnPairDrainsBeforeEOF(t *testing.T) {
	c, s := newConnPair("client", "server")
	defer c.Close()
	s.Write([]byte("hello, "))
	s.Write([]byte("edge"))
	s.Close()
	got, err := io.ReadAll(c)
	if err != nil || string(got) != "hello, edge" {
		t.Fatalf("ReadAll = %q, %v; want the buffered bytes, then EOF", got, err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write to a closed peer succeeded")
	}
}

func TestConnPairHoldBeatsEOF(t *testing.T) {
	c, s := newConnPair("client", "server")
	defer c.Close()
	if s.expirePeer(time.Hour) {
		t.Fatal("fired a peer that has no deadline")
	}
	c.SetReadDeadline(time.Now().Add(time.Hour))
	if s.expirePeer(time.Minute) {
		t.Fatal("fired a deadline the hold does not reach")
	}
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		read <- err
	}()
	if !s.expirePeer(2 * time.Hour) {
		t.Fatal("did not fire a deadline within the hold")
	}
	s.Write([]byte("late"))
	s.Close()
	if err := <-read; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("held read: err = %v, want os.ErrDeadlineExceeded", err)
	}
	// With data and EOF both pending, the fired deadline still wins.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("second held read: err = %v", err)
	}
}

func TestConnPairCloseUnblocksRead(t *testing.T) {
	c, s := newConnPair("client", "server")
	defer s.Close()
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		read <- err
	}()
	c.Close()
	select {
	case err := <-read:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("read on a closed conn: err = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a pending Read blocked")
	}
}

// heldGateway serves one internal-only function, instrumented into reg.
func heldGateway(delay time.Duration) (*Gateway, *obs.Registry, string) {
	p := NewPlatform()
	f := deployOne(p, Config{Access: InternalOnly}, okHandler("x"))
	g := NewGateway(p)
	g.Clock = func() time.Time { return t0 }
	g.UnreachableDelay = delay
	reg := obs.NewRegistry()
	g.Instrument(reg)
	return g, reg, f.FQDN
}

func gatewayTimeouts(reg *obs.Registry) int64 {
	return reg.Snapshot().Counters["gateway_responses_5xx_total"]
}

// On a kernel socket the gateway cannot see the client's deadline, so it
// waits: a client that hangs up first gets nothing, and one still
// connected when the delay runs out gets the 504.
func TestGatewayHoldKernelSocket(t *testing.T) {
	t.Run("client hangs up first", func(t *testing.T) {
		g, reg, fqdn := heldGateway(time.Hour)
		srv := httptest.NewServer(g)
		client := &http.Client{Timeout: 100 * time.Millisecond}
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		req.Host = fqdn
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("held request answered %d", resp.StatusCode)
		}
		srv.Close() // waits for the held handler to return
		if n := gatewayTimeouts(reg); n != 0 {
			t.Errorf("gateway wrote %d 504s to a client that had hung up", n)
		}
	})
	t.Run("delay runs out first", func(t *testing.T) {
		g, reg, fqdn := heldGateway(20 * time.Millisecond)
		srv := httptest.NewServer(g)
		defer srv.Close()
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		req.Host = fqdn
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout || gatewayTimeouts(reg) != 1 {
			t.Errorf("status %d, 504 counter %d; want one 504", resp.StatusCode, gatewayTimeouts(reg))
		}
	})
}

// On the edge the conn decides: a client deadline inside the hold fires at
// once and the gateway writes nothing; without one, the hold runs on the
// wall clock and ends in a 504. Both listeners, so the TLS layer is
// unwrapped on the way to the conn.
func TestGatewayHoldEdge(t *testing.T) {
	dials := []struct {
		name string
		dial func(e *Edge) (net.Conn, error)
	}{
		{"plain", func(e *Edge) (net.Conn, error) { return e.DialPlain(context.Background()) }},
		{"tls", func(e *Edge) (net.Conn, error) {
			c, err := e.DialTLS(context.Background())
			if err != nil {
				return nil, err
			}
			return tls.Client(c, &tls.Config{InsecureSkipVerify: true}), nil
		}},
	}
	for _, d := range dials {
		t.Run(d.name+"/deadline inside the hold", func(t *testing.T) {
			g, reg, fqdn := heldGateway(2 * time.Hour)
			e, err := StartEdge(g)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			conn, err := d.dial(e)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(time.Hour))
			start := time.Now()
			io.WriteString(conn, "GET / HTTP/1.1\r\nHost: "+fqdn+"\r\n\r\n")
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("held read: err = %v, want os.ErrDeadlineExceeded", err)
			}
			if el := time.Since(start); el > 10*time.Second {
				t.Errorf("hold took %v; it should not wait for the deadline", el)
			}
			// Re-armed, the conn shows what the gateway sent: nothing.
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if b, err := io.ReadAll(conn); len(b) != 0 || err != nil {
				t.Errorf("after the hold the gateway sent %q (err %v), want nothing", b, err)
			}
			if n := gatewayTimeouts(reg); n != 0 {
				t.Errorf("504 counter = %d, want 0", n)
			}
		})
		t.Run(d.name+"/no deadline", func(t *testing.T) {
			g, reg, fqdn := heldGateway(20 * time.Millisecond)
			e, err := StartEdge(g)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			conn, err := d.dial(e)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			io.WriteString(conn, "GET / HTTP/1.1\r\nHost: "+fqdn+"\r\n\r\n")
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout || gatewayTimeouts(reg) != 1 {
				t.Errorf("status %d, 504 counter %d; want one 504", resp.StatusCode, gatewayTimeouts(reg))
			}
		})
	}
}

// TestEdgeServesUnderEdgeLabel: edge handlers carry stage=edge in the
// goroutine profile even when the edge is started from inside a labelled
// pipeline stage.
func TestEdgeServesUnderEdgeLabel(t *testing.T) {
	g, _, fqdn := heldGateway(time.Hour)
	var e *Edge
	var err error
	pprof.Do(context.Background(), pprof.Labels("stage", "substrate"), func(context.Context) {
		e, err = StartEdge(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	conn, err := e.DialPlain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: "+fqdn+"\r\n\r\n") // held: no deadline
	for wait := time.Now().Add(5 * time.Second); ; {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "faas.(*Gateway).ServeHTTP") {
				if !strings.Contains(rec, `# labels: {"stage":"edge"}`) {
					t.Fatalf("held handler is not labelled stage=edge:\n%s", rec)
				}
				return
			}
		}
		if time.Now().After(wait) {
			t.Fatal("held handler never showed up in the goroutine profile")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkEdgeConn is one C2-style exchange per op: dial the plain
// listener, write a request, read the response to EOF. The loopback case is
// the same gateway behind httptest, for the kernel's share.
func BenchmarkEdgeConn(b *testing.B) {
	p := NewPlatform()
	f := deployOne(p, Config{}, okHandler("x"))
	g := NewGateway(p)
	var tick atomic.Int64 // a minute per request: no invocation overlaps another
	g.Clock = func() time.Time { return t0.Add(time.Duration(tick.Add(1)) * time.Minute) }
	e, err := StartEdge(g)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()
	var d net.Dialer
	dials := []struct {
		name string
		dial func(ctx context.Context) (net.Conn, error)
	}{
		{"edge", e.DialPlain},
		{"loopback", func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", srv.Listener.Addr().String())
		}},
	}
	req := []byte("GET / HTTP/1.1\r\nHost: " + f.FQDN + "\r\nConnection: close\r\n\r\n")
	for _, tc := range dials {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conn, err := tc.dial(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				conn.SetDeadline(time.Now().Add(time.Second))
				conn.Write(req)
				if resp, _ := io.ReadAll(conn); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
					b.Fatalf("response %q", resp)
				}
				conn.Close()
			}
		})
	}
}
