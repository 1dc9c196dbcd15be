package c2

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/obs"
)

// pipeScanner returns a scanner whose every dial is answered in memory by
// respond, given the probe bytes the scanner sent.
func pipeScanner(t *testing.T, db *DB, respond func(probe []byte) []byte) *Scanner {
	t.Helper()
	s := NewScanner(db)
	s.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			req := make([]byte, 4096)
			n, err := server.Read(req)
			if err != nil {
				return
			}
			server.Write(respond(req[:n]))
		}()
		return client, nil
	}
	return s
}

// TestScanHostOneExchangePerFingerprint scans a Cobalt Strike-like relay
// over a port-blind transport. Each fingerprint's probe goes out once, to
// its first declared port, and a match is reported on every declared port:
// 26 exchanges and 5 detections, counted as such.
func TestScanHostOneExchangePerFingerprint(t *testing.T) {
	db := DefaultDB()
	s := pipeScanner(t, db, func(probe []byte) []byte { return HandleRaw(db, FamilyCobaltStrike, probe) })
	var dialed []string
	dial := s.Dial
	s.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dialed = append(dialed, addr)
		return dial(ctx, network, addr)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	ds := s.ScanHost(context.Background(), "h.example")

	var want []string
	for _, fp := range db.All() {
		want = append(want, net.JoinHostPort("h.example", strconv.Itoa(fp.Ports[0])))
	}
	if !slices.Equal(dialed, want) {
		t.Errorf("dialed %v, want each fingerprint's first port once: %v", dialed, want)
	}
	var got []string
	for _, d := range ds {
		got = append(got, fmt.Sprintf("%s:%d", d.Fingerprint, d.Port))
	}
	if w := []string{"cs-like-1:80", "cs-like-1:443", "cs-like-2:80", "cs-like-2:443", "cs-like-3:443"}; !slices.Equal(got, w) {
		t.Errorf("detections = %v, want %v", got, w)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["c2_probes_total"]; n != int64(db.Len()) {
		t.Errorf("c2_probes_total = %d, want %d", n, db.Len())
	}
	if n := snap.Counters["c2_detections_total"]; n != int64(len(ds)) {
		t.Errorf("c2_detections_total = %d, want %d", n, len(ds))
	}
}

// TestScanHostReusedBufferSeesOnlyOwnBytes scans a host whose first probe
// draws a long relay banner and whose second draws a short 404. Both
// fingerprints match the banner, so a second match that saw any byte of the
// first response left in the reused buffer would report a false detection.
func TestScanHostReusedBufferSeesOnlyOwnBytes(t *testing.T) {
	match := Matcher{Tokens: [][]byte{[]byte("MZRE"), []byte("taskq")}, Delimiter: '|', MinFields: 3}
	banner := "HTTP/1.1 200 OK\r\n\r\n" + strings.Repeat("padding ", 200) + "MZRE taskq a|b|c|d"
	db := NewDB([]*Fingerprint{
		{ID: "long", Family: "f", Ports: []int{80}, Probe: "LONG {{HOST}}\r\n", Match: match},
		{ID: "short", Family: "f", Ports: []int{80}, Probe: "SHORT {{HOST}}\r\n", Match: match},
	})
	s := pipeScanner(t, db, func(probe []byte) []byte {
		if bytes.HasPrefix(probe, []byte("LONG ")) {
			return []byte(banner)
		}
		return []byte("HTTP/1.1 404 Not Found\r\n\r\nNot Found")
	})
	ds := s.ScanHost(context.Background(), "h.example")
	if len(ds) != 1 || ds[0].Fingerprint != "long" {
		t.Fatalf("detections = %+v, want only the long-banner fingerprint", ds)
	}
}

// TestScanHostCutsAtMaxResponse puts the banner's last matched byte at
// offset k: a MaxResponse of k still detects it, k-1 does not.
func TestScanHostCutsAtMaxResponse(t *testing.T) {
	fp := &Fingerprint{ID: "fp", Family: "f", Ports: []int{80}, Probe: "P {{HOST}}\r\n",
		Match: Matcher{Tokens: [][]byte{[]byte("MAGIC"), []byte("END")}}}
	resp := []byte(strings.Repeat("x", 700) + "MAGIC" + strings.Repeat("y", 600) + "END" + strings.Repeat("z", 50))
	k := bytes.Index(resp, []byte("END")) + len("END")
	s := pipeScanner(t, NewDB([]*Fingerprint{fp}), func([]byte) []byte { return resp })
	for _, tc := range []struct {
		max  int
		want int
	}{{k, 1}, {k - 1, 0}} {
		s.MaxResponse = tc.max
		if got := len(s.ScanHost(context.Background(), "h.example")); got != tc.want {
			t.Errorf("MaxResponse %d: %d detections, want %d", tc.max, got, tc.want)
		}
	}
}

// TestReadAllMatchesLimitReader checks readAll against the
// io.ReadAll(io.LimitReader(r, limit)) it replaces, over one buffer reused
// from a long read to short ones, with short reads and read errors. A
// reused buffer asks for larger reads than io.ReadAll's first 512 bytes, so
// the readers here give the same bytes however the reads are sized.
func TestReadAllMatchesLimitReader(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 300) // 4,800 bytes
	errReset := errors.New("connection reset")
	wraps := map[string]func(io.Reader) io.Reader{
		"plain":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"data-err": iotest.DataErrReader,
		"reset": func(r io.Reader) io.Reader {
			return io.MultiReader(r, iotest.ErrReader(errReset))
		},
	}
	var buf []byte
	for name, wrap := range wraps {
		for _, size := range []int{len(long), 0, 9, 511, 512, 513, 1500} {
			for _, limit := range []int{0, 1, 9, 512, 1024, 4096, 64 << 10} {
				src := long[:size]
				want, wantErr := io.ReadAll(io.LimitReader(wrap(strings.NewReader(src)), int64(limit)))
				var err error
				buf, err = readAll(wrap(strings.NewReader(src)), buf, limit)
				if !bytes.Equal(buf, want) || err != wantErr {
					t.Fatalf("%s size %d limit %d: readAll = %d bytes, %v; want %d bytes, %v",
						name, size, limit, len(buf), err, len(want), wantErr)
				}
				if size > limit && len(buf) != limit {
					t.Fatalf("%s size %d limit %d: read %d bytes, want exactly limit", name, size, limit, len(buf))
				}
			}
		}
	}
}
