package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// draws covers more than two wraps of the 607-word register, so every word
// is read both as first materialised and after it has been overwritten.
const draws = 1300

// oracleSeeds are the seeds whose normalisation has edges: zero and the
// multiples of the modulus (rand substitutes a fixed seed), negatives
// (rand adds the modulus back), and the int64 extremes.
var oracleSeeds = []int64{
	0, 1, 2, -1, -2, 42, -42, 89482311,
	modulus, -modulus, 2 * modulus, -2 * modulus, modulus - 1, modulus + 1, -(modulus - 1),
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	math.MaxInt32, math.MinInt32,
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds {
		checkStream(t, seed, draws)
	}
	rng := rand.New(rand.NewSource(20240101))
	for i := 0; i < 300; i++ {
		checkStream(t, rng.Int63()-rng.Int63(), draws)
	}
}

func checkStream(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := New(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand = %#x", seed, i, g, w)
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d draw %d: Int63 = %#x, math/rand = %#x", seed, i, g, w)
		}
	}
}

// TestRandMethodsMatch drives both sources through rand.Rand's derived
// methods, reseeding mid-stream, the way the per-function emitters use them.
func TestRandMethodsMatch(t *testing.T) {
	want := rand.New(rand.NewSource(7))
	got := rand.New(New(7))
	check := func(what string, w, g any) {
		t.Helper()
		if w != g {
			t.Fatalf("%s: got %v, math/rand %v", what, g, w)
		}
	}
	for round, seed := range []int64{7, -3, 0, math.MaxInt64} {
		if round > 0 {
			// Reseed partway through the register, with words of the old
			// stream already materialised and overwritten.
			want.Seed(seed)
			got.Seed(seed)
		}
		for i := 0; i < 200; i++ {
			check("Intn", want.Intn(1000), got.Intn(1000))
			check("Int63n", want.Int63n(1<<40+3), got.Int63n(1<<40+3))
			check("Float64", want.Float64(), got.Float64())
			check("NormFloat64", want.NormFloat64(), got.NormFloat64())
			check("ExpFloat64", want.ExpFloat64(), got.ExpFloat64())
			check("Uint32", want.Uint32(), got.Uint32())
			check("Uint64", want.Uint64(), got.Uint64())
		}
		ws, gs := want.Perm(50), got.Perm(50)
		want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		for i := range ws {
			check("Perm+Shuffle", ws[i], gs[i])
		}
		wb, gb := make([]byte, 37), make([]byte, 37)
		want.Read(wb)
		got.Read(gb)
		check("Read", string(wb), string(gb))
	}
}

// TestSeedDoesNotAllocate: reseeding is the per-function cost the package
// exists to cut.
func TestSeedDoesNotAllocate(t *testing.T) {
	s := New(1)
	if n := testing.AllocsPerRun(100, func() { s.Seed(12345); s.Uint64() }); n > 0 {
		t.Fatalf("Seed+Uint64 allocates %.1f per call", n)
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed, uint16(draws))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkStream(t, seed, int(n))
	})
}
