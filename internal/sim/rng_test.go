package sim

import (
	"math"
	"math/rand"
	"testing"
)

// rngSkips straddle every boundary of the lazy source: the first draw, the
// last draw computed from the seed alone (273), the register build (274),
// the feed index wrapping (334/335), the tap index wrapping (607/608), and a
// long run on the register.
var rngSkips = []int{0, 1, 272, 273, 274, 334, 335, 606, 607, 608, 2000}

// sameDraws compares every rand.Rand method the simulator calls, twice each,
// on r (over the lazy source) and oracle (over math/rand's own).
func sameDraws(t *testing.T, label string, r, oracle *rand.Rand) {
	t.Helper()
	for round := range 2 {
		checks := []struct {
			method    string
			got, want any
		}{
			{"Uint64", r.Uint64(), oracle.Uint64()},
			{"Int63", r.Int63(), oracle.Int63()},
			{"Intn(10)", r.Intn(10), oracle.Intn(10)},
			{"Intn(2^40)", r.Intn(1 << 40), oracle.Intn(1 << 40)},
			{"Int63n(1e9)", r.Int63n(1e9), oracle.Int63n(1e9)},
			{"Float64", r.Float64(), oracle.Float64()},
			{"ExpFloat64", r.ExpFloat64(), oracle.ExpFloat64()},
			{"NormFloat64", r.NormFloat64(), oracle.NormFloat64()},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("%s round %d: %s = %v, math/rand %v", label, round, c.method, c.got, c.want)
			}
		}
	}
}

// TestSourceMatchesMathRand: the lazy source is math/rand's source, seed for
// seed and draw for draw — across the seed reduction's edges (0, multiples
// of 2³¹−1 that reduce to 0, negatives, the int64 extremes) and 200 mixed
// seeds, from every boundary in rngSkips.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for k := int64(1); k <= 3; k++ {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1, -k*int32max-1)
	}
	for i := range int64(200) {
		seeds = append(seeds, mix(i))
	}
	for _, seed := range seeds {
		for _, skip := range rngSkips {
			var s source
			s.Seed(seed)
			oracle := rand.NewSource(seed).(rand.Source64)
			for k := 1; k <= skip; k++ {
				if got, want := s.Uint64(), oracle.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k, got, want)
				}
			}
			if lazy := s.vec == nil; lazy != (skip <= rngTap) {
				t.Fatalf("seed %d after %d draws: register built = %v", seed, skip, !lazy)
			}
			sameDraws(t, "seed", rand.New(&s), rand.New(oracle))
		}
	}
}

// TestRNGMatchesMathRand: NewRNG, Fork and ForkNamed are the streams the
// simulator has always drawn from rand.New(rand.NewSource(mix(seed))).
func TestRNGMatchesMathRand(t *testing.T) {
	for seed := int64(-3); seed <= 3; seed++ {
		for _, skip := range rngSkips {
			g := NewRNG(seed)
			oracle := rand.New(rand.NewSource(mix(seed)))
			for range skip {
				g.r.Uint64()
				oracle.Uint64()
			}
			sameDraws(t, "NewRNG", &g.r, oracle)
			f := g.Fork(int64(skip))
			o := rand.New(rand.NewSource(mix(int64(oracle.Uint64()>>1) ^ mix(int64(skip)))))
			sameDraws(t, "Fork", &f.r, o)
			f = g.ForkNamed("mac")
			o = rand.New(rand.NewSource(mix(int64(oracle.Uint64()>>1) ^ mix(fnvLabel("mac")))))
			sameDraws(t, "ForkNamed", &f.r, o)
		}
	}
}

// TestNewRNGAllocatesOnce: a stream is one 80-byte allocation until its
// 274th draw (TestSourceMatchesMathRand checks when the register comes).
func TestNewRNGAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewRNG(5) }); n != 1 {
		t.Fatalf("NewRNG: %v allocations, want 1", n)
	}
}

// FuzzRNGMatchesMathRand replays an op string on NewRNG(seed) after skip
// draws and on rand.New(rand.NewSource(mix(seed))): every RNG method, and
// Fork/ForkNamed switching both sides to the child stream, must agree.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(-7), uint16(272), []byte{2, 11, 20, 7, 7, 8, 0, 0})
	f.Add(int64(math.MinInt64), uint16(606), []byte{255, 128, 64, 7, 3})
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, ops []byte) {
		g := NewRNG(seed)
		o := rand.New(rand.NewSource(mix(seed)))
		for range skip % 2100 {
			g.r.Uint64()
			o.Uint64()
		}
		for i, b := range ops {
			arg := int64(b / 9)
			var got, want any
			switch b % 9 {
			case 0:
				got, want = g.r.Uint64(), o.Uint64()
			case 1:
				got, want = g.r.Int63(), o.Int63()
			case 2:
				n := int(arg)<<27 + 1 // past 2³¹ from arg 16 on: Intn's 63-bit path
				got, want = g.Intn(n), o.Intn(n)
			case 3:
				got, want = g.Jitter(Duration(arg+1)), Duration(o.Int63n(arg+1))
			case 4:
				got, want = g.Float64(), o.Float64()
			case 5:
				got, want = g.Exp(1), o.ExpFloat64()
			case 6:
				got, want = g.Normal(0, 1), o.NormFloat64()
			case 7:
				g = g.Fork(arg)
				o = rand.New(rand.NewSource(mix(int64(o.Uint64()>>1) ^ mix(arg))))
			case 8:
				label := string(rune('a' + arg))
				g = g.ForkNamed(label)
				o = rand.New(rand.NewSource(mix(int64(o.Uint64()>>1) ^ mix(fnvLabel(label)))))
			}
			if got != want {
				t.Fatalf("op %d (%d): %v, math/rand %v", i, b, got, want)
			}
		}
		sameDraws(t, "after ops", &g.r, o)
	})
}

var (
	rngSink     int
	rngSinkRNG  *RNG
	rngSinkRand *rand.Rand
)

// BenchmarkRNG prices a stream against its math/rand twin: creating one (the
// twin is what NewRNG built before the lazy source), drawing while it is
// still lazy (reseeded every 273 draws; math/rand has no lazy phase, so its
// twin is an ordinary draw), and drawing once the register exists.
func BenchmarkRNG(b *testing.B) {
	b.Run("new/sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			rngSinkRNG = NewRNG(int64(i))
		}
	})
	b.Run("new/math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			rngSinkRand = rand.New(rand.NewSource(mix(int64(i))))
		}
	})
	b.Run("draw-lazy/sim", func(b *testing.B) {
		g := NewRNG(1)
		for i := range b.N {
			if i%rngTap == 0 {
				g.src.Seed(int64(i))
			}
			rngSink += g.Intn(1000)
		}
	})
	b.Run("draw-lazy/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for range b.N {
			rngSink += r.Intn(1000)
		}
	})
	b.Run("draw-materialised/sim", func(b *testing.B) {
		g := NewRNG(1)
		for range rngLen {
			g.Intn(1000)
		}
		b.ResetTimer()
		for range b.N {
			rngSink += g.Intn(1000)
		}
	})
	b.Run("draw-materialised/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for range rngLen {
			r.Intn(1000)
		}
		b.ResetTimer()
		for range b.N {
			rngSink += r.Intn(1000)
		}
	})
}
