package c2

import (
	"context"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Scanner probes hosts for C2 relays by emitting each fingerprint's request
// over a fresh connection and matching the raw response bytes (paper §5.1:
// connect on ports 80 and 443, send family probe payloads, match the
// traffic fingerprint of the response).
//
// The scanner assumes its transport is port-blind: a host answers a probe
// with the same bytes on every port the fingerprint declares. So each
// fingerprint costs one exchange per host, on its first declared port, and
// a match is reported on every declared port. This holds for every Dial in
// the repository (the pipeline's plain edge listener, the tests' dialers and
// the example), all of which send port 443 in plain text to the listener
// port 80 reaches. A transport that gives port 443 its own behaviour, such
// as real TLS or a plain net.Dialer on the open Internet, breaks the
// assumption: the scan must then go back to one exchange per fingerprint
// and port.
type Scanner struct {
	DB *DB
	// Timeout bounds each connection attempt and read.
	Timeout time.Duration
	// Dial opens the transport connection. The caller sets it, and it must
	// be port-blind (see Scanner); the simulation and the tests point it at
	// the in-process edge.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// MaxResponse bounds how many response bytes are read per probe.
	MaxResponse int

	// Telemetry; populated by Instrument, no-ops otherwise.
	mHosts    *obs.Counter   // c2_hosts_scanned_total
	mProbes   *obs.Counter   // c2_probes_total: fingerprint exchanges tried
	mConnFail *obs.Counter   // c2_conn_failures_total
	mHits     *obs.Counter   // c2_detections_total
	mInflight *obs.Gauge     // c2_inflight: hosts being scanned right now
	mLatency  *obs.Histogram // c2_scan_seconds: full per-host sweep time
}

// NewScanner builds a scanner over db with sane defaults, except Dial,
// which the caller sets.
func NewScanner(db *DB) *Scanner {
	return &Scanner{
		DB:          db,
		Timeout:     5 * time.Second,
		MaxResponse: 64 << 10,
	}
}

// Instrument points the scanner's telemetry at reg. Call before scanning; a
// nil registry leaves the scanner un-instrumented.
func (s *Scanner) Instrument(reg *obs.Registry) {
	s.mHosts = reg.Counter("c2_hosts_scanned_total")
	s.mProbes = reg.Counter("c2_probes_total")
	s.mConnFail = reg.Counter("c2_conn_failures_total")
	s.mHits = reg.Counter("c2_detections_total")
	s.mInflight = reg.Gauge("c2_inflight")
	s.mLatency = reg.Histogram("c2_scan_seconds", nil)
}

// ScanHost probes one host with every fingerprint and returns the
// detections. Each fingerprint's probe goes out once, to its first declared
// port; a match is reported once per declared port, in declaration order,
// because the transport is port-blind (see Scanner). Callers typically
// dedupe by family. Connection failures are treated as "not a relay", never
// as errors: a scan of the open Internet sees them constantly.
func (s *Scanner) ScanHost(ctx context.Context, host string) []Detection {
	s.mHosts.Inc()
	s.mInflight.Add(1)
	start := time.Now()
	defer func() {
		s.mInflight.Add(-1)
		s.mLatency.Observe(time.Since(start).Seconds())
	}()
	var (
		out []Detection
		buf []byte // response buffer, reused across the host's probes
		hit bool
	)
	for _, fp := range s.DB.All() {
		if ctx.Err() != nil {
			return out
		}
		if len(fp.Ports) == 0 {
			continue
		}
		if hit, buf = s.probeOne(ctx, host, fp.Ports[0], fp, fp.ProbeFor(host), buf); !hit {
			continue
		}
		for _, port := range fp.Ports {
			s.mHits.Inc()
			out = append(out, Detection{
				Host: host, Port: port,
				Fingerprint: fp.ID, Family: fp.Family,
			})
		}
	}
	return out
}

// probeOne sends one rendered fingerprint probe and matches the response,
// which it reads into buf. It returns buf, grown if need be, for the next
// probe; the match keeps no reference to it.
func (s *Scanner) probeOne(ctx context.Context, host string, port int, fp *Fingerprint, probe, buf []byte) (bool, []byte) {
	cctx, cancel := context.WithTimeout(ctx, s.Timeout)
	defer cancel()
	s.mProbes.Inc()
	conn, err := s.Dial(cctx, "tcp", net.JoinHostPort(host, strconv.Itoa(port)))
	if err != nil {
		s.mConnFail.Inc()
		return false, buf
	}
	defer conn.Close()
	deadline := time.Now().Add(s.Timeout)
	conn.SetDeadline(deadline)
	if _, err := conn.Write(probe); err != nil {
		return false, buf
	}
	resp, err := readAll(conn, buf, s.MaxResponse)
	if err != nil && len(resp) == 0 {
		return false, resp
	}
	return fp.Match.Matches(resp), resp
}

// readAll is io.ReadAll(io.LimitReader(r, limit)) into buf's storage: it
// reads until EOF, an error or limit bytes, and returns what it read with the
// error (nil at EOF or at the limit).
func readAll(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			// Grow as io.ReadAll does: 512 bytes first, then doubling.
			buf = append(buf, make([]byte, max(512, cap(buf)))...)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Families collapses detections to the set of distinct families seen.
func Families(ds []Detection) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, d := range ds {
		if _, ok := seen[d.Family]; !ok {
			seen[d.Family] = struct{}{}
			out = append(out, d.Family)
		}
	}
	return out
}
