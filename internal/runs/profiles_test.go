package runs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prof"
)

func profiledArchive(created string) *Archive {
	a := sampleArchive(created)
	a.Profiles = []prof.Snapshot{
		{Stage: "substrate", Kind: "heap", Data: []byte("heap-bytes")},
		{Stage: "substrate", Kind: "allocs", Data: []byte("allocs-bytes")},
		{Stage: "probe", Kind: "heap", Data: []byte("old")},
		// Same (stage, kind) again: keep-last wins in the written archive.
		{Stage: "probe", Kind: "heap", Data: []byte("new-heap")},
		{Stage: "pipeline", Kind: "cpu", Data: []byte("cpu-bytes")},
	}
	return a
}

func TestWriteProfilesKeepLast(t *testing.T) {
	root := t.TempDir()
	dir, err := Write(root, profiledArchive("2026-08-06T00:00:00Z"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, ProfilesDir, "probe-heap.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "new-heap" {
		t.Fatalf("probe-heap.pb.gz = %q, want the later snapshot", b)
	}
	infos, err := ListProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("want 4 profile files after dedupe, got %d: %+v", len(infos), infos)
	}
	for _, in := range infos {
		if in.Size <= 0 || in.Stage == "" || in.Kind == "" || !strings.HasSuffix(in.Name, ".pb.gz") {
			t.Fatalf("malformed inventory entry: %+v", in)
		}
	}
	line := ProfilesLine(infos)
	for _, want := range []string{"4", "cpu x1", "heap x2", "allocs x1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("ProfilesLine %q missing %q", line, want)
		}
	}
}

// TestListProfilesTolerant pins the "most runs are unprofiled" contract: an
// absent profiles directory is nil/no-error, and stray non-profile entries
// inside one are skipped rather than misparsed.
func TestListProfilesTolerant(t *testing.T) {
	root := t.TempDir()
	dir, err := Write(root, sampleArchive("2026-08-06T00:00:00Z"))
	if err != nil {
		t.Fatal(err)
	}
	infos, err := ListProfiles(dir)
	if err != nil || infos != nil {
		t.Fatalf("absent profiles dir: got %v, %v; want nil, nil", infos, err)
	}
	if got := ProfilesLine(nil); got != "profiles: none" {
		t.Fatalf("ProfilesLine(nil) = %q", got)
	}

	pdir := filepath.Join(dir, ProfilesDir)
	if err := os.MkdirAll(filepath.Join(pdir, "junk-subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pdir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pdir, "probe-heap.pb.gz"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err = ListProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Stage != "probe" || infos[0].Kind != "heap" {
		t.Fatalf("want the one real profile, got %+v", infos)
	}
}

// TestListWarnProfilesOnly pins ListWarn's treatment of profile debris: a
// complete archive with a profiles directory lists normally, while a
// directory holding ONLY a profiles dir (an interrupted profiled run) is
// skipped with a warning, like any other partial archive.
func TestListWarnProfilesOnly(t *testing.T) {
	root := t.TempDir()
	if _, err := Write(root, profiledArchive("2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	stub := filepath.Join(root, "r-deadbeef0000")
	if err := os.MkdirAll(filepath.Join(stub, ProfilesDir), 0o755); err != nil {
		t.Fatal(err)
	}
	recs, warns, err := ListWarn(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 complete run, got %d", len(recs))
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "r-deadbeef0000") {
		t.Fatalf("want one warning naming the partial dir, got %v", warns)
	}
}
