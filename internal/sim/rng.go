package sim

import "math/rand"

// RNG is a deterministic random stream. Each subsystem of a run gets its own
// forked substream so that, e.g., adding one extra MAC backoff draw does not
// perturb the mobility pattern of an otherwise identical scenario.
type RNG struct {
	src source
	r   rand.Rand // draws from src, so an RNG is only ever used by pointer
}

// NewRNG creates a stream from a 64-bit seed. Its draws are those of
// rand.New(rand.NewSource(mix(seed))), at a fraction of the seeding cost.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(mix(seed))
	g.r = *rand.New(&g.src)
	return g
}

// mix applies a splitmix64 finalizer so that small consecutive seeds (0,1,2…)
// yield well-separated streams.
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Fork derives an independent substream labelled by id. Forks of the same
// (seed, id) pair are identical; different ids are effectively independent.
func (g *RNG) Fork(id int64) *RNG {
	return NewRNG(int64(g.r.Uint64()>>1) ^ mix(id))
}

// fnvLabel hashes a string label (FNV-1a) for substream forking and seed
// derivation. Both users must keep sharing it: the constants are part of
// the cross-process determinism contract.
func fnvLabel(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// ForkNamed derives a substream from a string label (hashing the label).
func (g *RNG) ForkNamed(name string) *RNG {
	return g.Fork(fnvLabel(name))
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform draw in [lo,hi). float64(…) keeps the product
// rounded on every CPU: no fused multiply-add.
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + float64((hi-lo)*g.r.Float64()) }

// Intn returns a uniform integer in [0,n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential draw with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Normal returns a normal draw with the given mean and stddev.
func (g *RNG) Normal(mean, sd float64) float64 { return g.r.NormFloat64()*sd + mean }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// DurationUniform returns a uniform Duration in [lo,hi).
func (g *RNG) DurationUniform(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(g.r.Int63n(int64(hi-lo)))
}

// Jitter returns a uniform Duration in [0,max).
func (g *RNG) Jitter(max Duration) Duration {
	if max <= 0 {
		return 0
	}
	return Duration(g.r.Int63n(int64(max)))
}
