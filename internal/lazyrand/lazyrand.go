// Package lazyrand is math/rand's Go 1 source with lazy seeding. Its
// streams are bit-identical to rand.NewSource's: rand.New over a Source
// yields the same Int63, Uint64, Intn, Float64, Int63n, Shuffle and Perm
// values as rand.New over rand.NewSource with the same seed, and Rand.Seed
// reseeds it the same way.
//
// rand.NewSource's Seed runs 1,841 sequential steps of a Lehmer LCG to fill
// 607 state words, which costs about 12 µs. A per-function stream then draws
// a few dozen values, and each draw reads only two state words. Step k of
// that LCG is seed·48271^k mod (2^31−1), so a state word is three
// multiplications against a precomputed power table. Seed here only
// normalises the seed and clears a bitmap, and a draw computes each state
// word the first time it reads it.
//
// The 607 additive constants rand mixes into the initial state are not
// copied: init derives them from rand.NewSource's own first 607 outputs (see
// deriveCooked), so the two generators cannot drift apart across Go
// releases.
package lazyrand

import "math/rand"

const (
	length   = 607                // state words of the lagged-Fibonacci register
	lag      = 273                // rand's rngTap: feed starts length-lag slots past tap
	modulus  = 1<<31 - 1          // the seeding LCG's prime modulus
	mult     = 48271              // the seeding LCG's multiplier
	burn     = 20                 // LCG steps rand discards before the first word
	mask63   = 1<<63 - 1          // Int63's mask
	zeroSeed = 89482311           // rand's substitute for a seed ≡ 0 mod modulus
	words    = (length + 63) / 64 // uint64s in the materialised bitmap
)

var (
	// powers[j] = 48271^(burn+1+j) mod modulus: state word i is built from
	// LCG steps burn+1+3i .. burn+3+3i.
	powers [3 * length]uint64
	// cooked is the constant each state word is XORed with (rand's
	// rngCooked), derived at init.
	cooked [length]int64
)

func init() {
	x := uint64(1)
	for k := 0; k < burn; k++ {
		x = mulmod(x, mult)
	}
	for j := range powers {
		x = mulmod(x, mult)
		powers[j] = x
	}
	deriveCooked()
}

// deriveCooked recovers rand's constants from one reference stream. After
// 607 draws every register slot has been overwritten exactly once, by the
// draw that fed it, so the outputs alone give the final register. Running
// the recurrence backwards (each draw added the tap word to the feed word,
// so subtract it again) yields the initial register, and XORing out the
// seed's LCG words leaves the constants.
func deriveCooked() {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var vec [length]int64
	tap, feed := 0, length-lag
	for n := 0; n < length; n++ {
		tap, feed = prev(tap), prev(feed)
		vec[feed] = int64(ref.Uint64())
	}
	// tap and feed are back at their starting slots: undo the newest draw
	// first.
	for n := 0; n < length; n++ {
		vec[feed] -= vec[tap]
		tap, feed = next(tap), next(feed)
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ seedWord(seed, i)
	}
}

// Source is a rand.Source64 whose streams equal rand.NewSource's. Like
// rand.NewSource's, it is not safe for concurrent use.
type Source struct {
	tap, feed int
	seed      uint64        // normalised into [1, modulus)
	ready     [words]uint64 // bit i set: vec[i] holds its value
	vec       [length]int64 // the register; valid where ready
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, length-lag
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.ready = [words]uint64{}
}

// Uint64 returns the next value of the stream, all 64 bits.
func (s *Source) Uint64() uint64 {
	s.tap = prev(s.tap)
	s.feed = prev(s.feed)
	if s.ready[s.tap>>6]&(1<<(s.tap&63)) == 0 {
		s.materialise(s.tap)
	}
	if s.ready[s.feed>>6]&(1<<(s.feed&63)) == 0 {
		s.materialise(s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

func (s *Source) materialise(i int) {
	s.vec[i] = cooked[i] ^ seedWord(s.seed, i)
	s.ready[i>>6] |= 1 << (i & 63)
}

// seedWord is the LCG contribution to initial state word i for a
// normalised seed: rand's x<<40 ^ y<<20 ^ z over three consecutive steps,
// with the same int64 overflow.
func seedWord(seed uint64, i int) int64 {
	p := powers[3*i : 3*i+3 : 3*i+3]
	return int64(mulmod(seed, p[0]))<<40 ^ int64(mulmod(seed, p[1]))<<20 ^ int64(mulmod(seed, p[2]))
}

// mulmod returns a·b mod 2^31−1 for a, b < 2^31. Since 2^31 ≡ 1, two folds
// of the high bits onto the low bits and one conditional subtraction reduce
// the 62-bit product.
func mulmod(a, b uint64) uint64 {
	v := a * b
	v = v&modulus + v>>31
	v = v&modulus + v>>31
	if v >= modulus {
		v -= modulus
	}
	return v
}

func prev(i int) int {
	if i == 0 {
		return length - 1
	}
	return i - 1
}

func next(i int) int {
	if i == length-1 {
		return 0
	}
	return i + 1
}
