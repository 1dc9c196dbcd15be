package faas

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Edge serves a handler over an in-memory network: one plain-HTTP listener
// (port-80 semantics) and one TLS listener (port-443 semantics), both run by
// the real net/http server and crypto/tls. A dialer gets one end of a
// buffered conn pair and the server the other, so a probe pays for its TLS
// handshake and HTTP framing and for no kernel round trip.
//
// The pair also turns the gateway's hold on internal-only functions into an
// event: the server end can see the client end's read deadline, and fires
// it as soon as the hold would outlast it (see Gateway.hold).
type Edge struct {
	srv        *http.Server
	plain, tls *edgeListener
	wg         sync.WaitGroup
}

// StartEdge serves h over a fresh in-memory edge with an ephemeral
// self-signed certificate. The serve loops, and the connection goroutines
// they start, carry the pprof label stage=edge: edge CPU is its own line in
// a profile, not charged to the pipeline stage that started the edge.
func StartEdge(h http.Handler) (*Edge, error) {
	cert, err := selfSignedCert()
	if err != nil {
		return nil, err
	}
	e := &Edge{
		plain: newEdgeListener("edge:80"),
		tls:   newEdgeListener("edge:443"),
		srv: &http.Server{
			Handler:     h,
			ConnContext: withEdgeConn,
			// The chaos layer aborts handshakes and resets connections by
			// design; the server's complaints about them are expected noise,
			// not signal, so they are dropped rather than spammed to stderr.
			ErrorLog: log.New(io.Discard, "", 0),
		},
	}
	tlsLn := tls.NewListener(e.tls, &tls.Config{Certificates: []tls.Certificate{cert}})
	for _, ln := range []net.Listener{e.plain, tlsLn} {
		e.wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("stage", "edge"), func(context.Context) {
			defer e.wg.Done()
			e.srv.Serve(ln)
		})
	}
	return e, nil
}

// DialPlain connects to the plain-HTTP listener.
func (e *Edge) DialPlain(ctx context.Context) (net.Conn, error) { return e.plain.dial(ctx) }

// DialTLS connects to the TLS listener; the caller runs the client side of
// the handshake.
func (e *Edge) DialTLS(ctx context.Context) (net.Conn, error) { return e.tls.dial(ctx) }

// Close shuts both listeners and every open connection down.
func (e *Edge) Close() {
	e.srv.Close()
	e.wg.Wait()
}

// errEdgeClosed is what a dial to a closed edge listener returns.
var errEdgeClosed = errors.New("faas: edge closed: connection refused")

// edgeListener hands the server end of each dialled pair to Accept.
type edgeListener struct {
	addr  edgeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newEdgeListener(addr edgeAddr) *edgeListener {
	return &edgeListener{addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *edgeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *edgeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *edgeListener) Addr() net.Addr { return l.addr }

func (l *edgeListener) dial(ctx context.Context) (net.Conn, error) {
	client, server := newConnPair("edge:client", l.addr)
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, errEdgeClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// edgeAddr names one end of an in-memory edge connection.
type edgeAddr string

func (a edgeAddr) Network() string { return "edge" }
func (a edgeAddr) String() string  { return string(a) }

// queue is one direction of a conn pair. It is unbounded, so a writer never
// waits for its reader: a TLS close_notify written to a peer that has
// stopped reading lands in the buffer instead of stalling Close, as it
// would on an unbuffered net.Pipe.
type queue struct {
	mu    sync.Mutex
	buf   []byte
	off   int       // read position in buf
	eof   bool      // the writing end closed: reads see EOF once buf drains
	gone  bool      // the reading end closed: its reads and writes to it fail
	rdl   time.Time // the reading end's read deadline
	fired bool      // rdl was fired early by a hold
	wdl   time.Time // the writing end's write deadline
	ready chan struct{}
	timer *time.Timer // wakes a blocked reader at rdl
}

// signal wakes a reader blocked on q. ready has capacity 1: a wake-up that
// finds one pending is already covered by it.
func (q *queue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// expiredLocked reports whether the reading end's read deadline has passed.
func (q *queue) expiredLocked() bool {
	return q.fired || (!q.rdl.IsZero() && !time.Now().Before(q.rdl))
}

// edgeConn is one end of a buffered in-memory conn pair. A passed read
// deadline takes priority over buffered data and EOF, as on a kernel
// socket, so a held request whose deadline fires reads as a timeout even
// when the server hangs up right after.
type edgeConn struct {
	in, out       *queue // in: peer → this end; out: this end → peer
	local, remote edgeAddr
}

func newConnPair(a, b edgeAddr) (*edgeConn, *edgeConn) {
	ab := &queue{ready: make(chan struct{}, 1)}
	ba := &queue{ready: make(chan struct{}, 1)}
	return &edgeConn{in: ba, out: ab, local: a, remote: b},
		&edgeConn{in: ab, out: ba, local: b, remote: a}
}

func (c *edgeConn) Read(b []byte) (int, error) {
	q := c.in
	for {
		q.mu.Lock()
		var err error
		switch {
		case q.gone:
			err = net.ErrClosed
		case q.expiredLocked():
			err = os.ErrDeadlineExceeded
		case q.off < len(q.buf):
			n := copy(b, q.buf[q.off:])
			q.off += n
			more := q.off < len(q.buf)
			if !more {
				q.buf, q.off = q.buf[:0], 0
			}
			q.mu.Unlock()
			if more {
				q.signal()
			}
			return n, nil
		case q.eof:
			err = io.EOF
		case !q.rdl.IsZero():
			// Wake at the deadline. The timer is reused across reads; a
			// stale firing is only a spurious wake-up, and the loop
			// re-checks.
			if q.timer == nil {
				q.timer = time.AfterFunc(time.Until(q.rdl), q.signal)
			} else {
				q.timer.Reset(time.Until(q.rdl))
			}
		}
		q.mu.Unlock()
		if err != nil {
			q.signal() // pass the wake-up on to any other blocked reader
			return 0, err
		}
		<-q.ready
		// The waker put this goroutine in its P's next slot, so two
		// goroutines trading messages would keep the P while older flows
		// wait in the run queue. Yield, as a kernel socket's wake-up
		// through the netpoller would: flows are then served roughly in
		// arrival order, and a CPU-bound probe sweep keeps the latency
		// tail of loopback TCP instead of stretching it past the timeout.
		runtime.Gosched()
	}
}

func (c *edgeConn) Write(b []byte) (int, error) {
	q := c.out
	q.mu.Lock()
	var err error
	switch {
	case q.eof:
		err = net.ErrClosed
	case !q.wdl.IsZero() && !time.Now().Before(q.wdl):
		err = os.ErrDeadlineExceeded
	case q.gone:
		err = io.ErrClosedPipe
	default:
		q.buf = append(q.buf, b...)
	}
	q.mu.Unlock()
	if err != nil {
		return 0, err
	}
	q.signal()
	return len(b), nil
}

// Close ends both directions: the peer reads what is buffered, then EOF,
// and its writes fail. A Read pending on this end returns net.ErrClosed.
func (c *edgeConn) Close() error {
	c.in.mu.Lock()
	c.in.gone, c.in.buf = true, nil
	if c.in.timer != nil {
		c.in.timer.Stop()
	}
	c.in.mu.Unlock()
	c.in.signal()
	c.out.mu.Lock()
	c.out.eof = true
	c.out.mu.Unlock()
	c.out.signal()
	return nil
}

func (c *edgeConn) LocalAddr() net.Addr  { return c.local }
func (c *edgeConn) RemoteAddr() net.Addr { return c.remote }

func (c *edgeConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *edgeConn) SetReadDeadline(t time.Time) error {
	c.in.mu.Lock()
	c.in.rdl, c.in.fired = t, false
	c.in.mu.Unlock()
	c.in.signal() // a blocked Read re-arms its timer
	return nil
}

func (c *edgeConn) SetWriteDeadline(t time.Time) error {
	c.out.mu.Lock()
	c.out.wdl = t
	c.out.mu.Unlock()
	return nil
}

// expirePeer fires the peer's read deadline now if it falls within d of
// now, and reports whether it did. A kernel socket would return the same
// timeout at the deadline itself; nothing the server could do before then
// is visible to a peer that only waits.
func (c *edgeConn) expirePeer(d time.Duration) bool {
	q := c.out
	q.mu.Lock()
	fire := !q.rdl.IsZero() && !q.rdl.After(time.Now().Add(d))
	if fire {
		q.fired = true
	}
	q.mu.Unlock()
	if fire {
		q.signal()
	}
	return fire
}

type edgeConnKey struct{}

// withEdgeConn is the edge server's ConnContext: it puts the server end of
// an edge conn, under any TLS layer, where Gateway.hold can find it.
func withEdgeConn(ctx context.Context, c net.Conn) context.Context {
	if tc, ok := c.(*tls.Conn); ok {
		c = tc.NetConn()
	}
	if ec, ok := c.(*edgeConn); ok {
		return context.WithValue(ctx, edgeConnKey{}, ec)
	}
	return ctx
}

// selfSignedCert mints an ephemeral ECDSA certificate for the simulated
// edge. Probers connect with verification disabled, as they would against
// mis-deployed endpoints in a measurement campaign.
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("faas: edge key: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "simulated-cloud-edge"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"*"},
		IsCA:         true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("faas: edge cert: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
