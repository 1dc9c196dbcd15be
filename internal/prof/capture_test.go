package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
	"testing"
)

func TestNilCapturerIsNoOp(t *testing.T) {
	var c *Capturer = NewCapturer(false)
	if c != nil {
		t.Fatal("disabled capturer must be nil")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.StageBoundary("identify")
	if snaps := c.Stop(); snaps != nil {
		t.Fatalf("nil capturer returned snapshots: %v", snaps)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCapturerStageBoundaries(t *testing.T) {
	c := NewCapturer(true)
	if err := c.Start(); err != nil {
		// Another CPU profile may be active (e.g. go test -cpuprofile);
		// boundary snapshots must still work.
		t.Logf("cpu profile unavailable: %v", err)
	}
	c.StageBoundary("substrate") // first boundary: nothing finished yet
	c.StageBoundary("identify")  // snapshots substrate
	c.StageBoundary("probe")     // snapshots identify
	snaps := c.Stop()            // snapshots probe (+ cpu when it started)

	byName := map[string]Snapshot{}
	for _, s := range snaps {
		byName[s.FileName()] = s
	}
	for _, stage := range []string{"substrate", "identify", "probe"} {
		for _, kind := range SnapshotKinds {
			name := stage + "-" + kind + ".pb.gz"
			s, ok := byName[name]
			if !ok {
				t.Fatalf("missing snapshot %s (have %d)", name, len(snaps))
			}
			checkGzip(t, s)
		}
	}
	// Stop is idempotent and stable.
	if again := c.Stop(); len(again) != len(snaps) {
		t.Fatalf("second Stop returned %d snapshots, want %d", len(again), len(snaps))
	}
}

// TestCapturerConcurrentBoundaries is the race test for stage-boundary
// snapshot capture: boundaries arriving from many goroutines (as a future
// concurrent pipeline shape might deliver them) must not race or corrupt
// the snapshot list. Run under -race via the Makefile race target.
func TestCapturerConcurrentBoundaries(t *testing.T) {
	c := NewCapturer(true)
	if err := c.Start(); err != nil {
		t.Logf("cpu profile unavailable: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				c.StageBoundary(fmt.Sprintf("stage-%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	snaps := c.Stop()
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, s := range snaps {
		checkGzip(t, s)
	}
}

// checkGzip fails unless the snapshot is one clean gzip stream, the framing
// runtime/pprof writes its protobuf in (go tool pprof reads the rest).
func checkGzip(t *testing.T, s Snapshot) {
	t.Helper()
	if !bytes.HasPrefix(s.Data, []byte{0x1f, 0x8b}) {
		t.Fatalf("snapshot %s: no gzip magic", s.FileName())
	}
	zr, err := gzip.NewReader(bytes.NewReader(s.Data))
	if err != nil {
		t.Fatalf("snapshot %s: %v", s.FileName(), err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		t.Fatalf("snapshot %s: %v", s.FileName(), err)
	}
	if n == 0 {
		t.Fatalf("snapshot %s: empty profile", s.FileName())
	}
}
