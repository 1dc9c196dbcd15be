package checkpoint

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzCheckpointDecode pins the decoder's core safety property: arbitrary
// bytes — including truncations and mutations of valid checkpoints — never
// panic and never allocate unboundedly; they either decode or fail with an
// error wrapping ErrCorrupt. Only the current format version ever decodes:
// a file of an older version is refused before its sections are read.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := Encode(&Snapshot{
		Header: Header{RunID: "r-0123456789ab", Seed: 1, Workers: 2, Seq: 3, Stage: "identify"},
		Stages: []string{"substrate", "identify"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v1[len(magic):], 1)
	f.Add(v1)
	f.Add([]byte("SCFCKPT1"))
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// A successful decode must yield a usable snapshot.
		if snap == nil {
			t.Fatal("Decode returned nil snapshot with nil error")
		}
		if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
			t.Fatalf("decoded a version-%d file as version %d", v, version)
		}
		snap.HasStage("identify")
	})
}
