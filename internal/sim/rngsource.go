package sim

import "math/rand"

// source is math/rand's seeded generator — an additive lagged Fibonacci
// register of rngLen words, x[n] = x[n-rngLen] + x[n-rngTap] — with the same
// output for every seed, seeded in O(1) instead of 1 841 Lehmer steps, and
// holding its 607-word register only once a stream needs it. Go 1
// compatibility freezes math/rand's output for a given seed, so every stream
// the simulator has ever drawn is a pure function of the code below.
//
// Seeding sets vec[i] = rngCooked[i] ^ the Lehmer steps 21+3i, 22+3i and
// 23+3i of x ← 48271·x mod (2³¹−1) from the reduced seed (seedWord). Draw k
// (1-based) writes vec[feed] = vec[feed] + vec[tap] with feed = 334−k and
// tap = 607−k. No draw before the 274th has written either word it reads,
// so until then a draw is computed from the seed alone. At draw 274 the
// register is built and the earlier feed writes replayed; from there on
// every draw is math/rand's loop (next).
type source struct {
	vec       *[rngLen]int64 // nil until draw rngTap+1
	tap, feed int
	seed      uint64 // in [1, 2³¹−2]
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

var (
	// rngPow[i] = 48271^(21+3i) mod (2³¹−1): it takes the reduced seed to
	// the first of the three Lehmer steps that feed vec[i].
	rngPow = lehmerPowers()
	// rngCooked is math/rand's table of the same name, recovered from its
	// public output rather than copied (recoverCooked).
	rngCooked = recoverCooked()
)

func lehmerPowers() (pow [rngLen]uint64) {
	p, a3 := uint64(1), mulmod(mulmod(lehmerA, lehmerA), lehmerA)
	for range 21 {
		p = mulmod(p, lehmerA)
	}
	for i := range pow {
		pow[i] = p
		p = mulmod(p, a3)
	}
	return pow
}

// recoverCooked inverts the first rngLen draws of math/rand's seed-1 stream.
// Draw k's feed word is still the seeded vec[334−k mod 607]; its tap word is
// the seeded vec[607−k] for k ≤ 273 and draw k−273's output after that. So
// draws 274–607 give vec[60..0] and vec[606..334], draws 1–273 then give
// vec[333..61], and XORing out seed 1's Lehmer words leaves the table.
func recoverCooked() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var draw [rngLen + 1]int64 // 1-based
	for k := 1; k <= rngLen; k++ {
		draw[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - k) % rngLen }
	for k := rngTap + 1; k <= rngLen; k++ {
		cooked[feed(k)] = draw[k] - draw[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		cooked[feed(k)] = draw[k] - cooked[rngLen-k]
	}
	for i := range cooked {
		cooked[i] ^= seedWord(1, i)
	}
	return cooked
}

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹ by folding the Mersenne
// modulus; on a nonzero a < 2³¹−1 and b = 48271 it is math/rand's seedrand.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31 // < 2³²
	p = p&int32max + p>>31 // ≤ 2³¹
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedWord is the Lehmer part of seeded vec[i]: steps 21+3i, 22+3i and
// 23+3i from seed, the first reached with one multiply.
func seedWord(seed uint64, i int) int64 {
	x := mulmod(seed, rngPow[i])
	y := mulmod(x, lehmerA)
	z := mulmod(y, lehmerA)
	return int64(x<<40 ^ y<<20 ^ z)
}

// Seed reduces seed the way math/rand does: mod 2³¹−1, negatives wrapped,
// 0 replaced.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{tap: rngLen, feed: rngLen - rngTap, seed: uint64(seed)}
}

// Int63 and Uint64 test for the register themselves so that next inlines
// into both: rand.Rand's draws all go through Int63.
func (s *source) Int63() int64 {
	if s.vec == nil {
		return int64(s.lazy() & rngMask)
	}
	return int64(s.next() & rngMask)
}

func (s *source) Uint64() uint64 {
	if s.vec == nil {
		return s.lazy()
	}
	return s.next()
}

// next is math/rand's rngSource.Uint64.
func (s *source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazy is a draw before the register exists. The first 273 read only
// seeded words; the 274th builds the register and continues on it.
func (s *source) lazy() uint64 {
	if s.tap == rngLen-rngTap {
		vec := new([rngLen]int64)
		for i := range vec {
			vec[i] = s.word(i)
		}
		for f := s.feed; f < rngLen-rngTap; f++ {
			vec[f] += vec[f+rngTap]
		}
		s.vec = vec
		return s.next()
	}
	s.tap--
	s.feed--
	return uint64(s.word(s.feed) + s.word(s.tap))
}

// word is seeded vec[i].
func (s *source) word(i int) int64 { return rngCooked[i] ^ seedWord(s.seed, i) }
