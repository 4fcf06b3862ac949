package radio

import (
	"fmt"
	"math"

	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// dbToLinear converts a power deviation in dB to a linear factor.
func dbToLinear(db float64) float64 { return math.Pow(10, db/10) }

// gaussPair turns one content-derived seed into a pair of independent
// standard-normal draws (Box-Muller over two splitmix uniforms). Pure
// function of the seed: the cross-process determinism of the stochastic
// models reduces to the determinism of sim.DeriveSeed*.
func gaussPair(seed int64) (float64, float64) {
	u1 := sim.SeedUniform(seed)
	u2 := sim.SeedUniform(sim.DeriveSeedValues(seed, 1))
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	return r * math.Cos(theta), r * math.Sin(theta)
}

// Shadowing is log-normal shadowing around a nominal path-loss model: each
// link i–j carries a static power deviation dev(i,j) dB ~ N(0, SigmaDB²),
// clamped to ±MaxDevDB, drawn content-derived from the run seed via
// sim.DeriveSeed(seed, "shadow|i|j") with i < j — so the deviation field
// is symmetric, identical across processes, independent of probe order
// (grid and brute-force transmit paths see the same links), and stable
// under campaign checkpoint/resume. RxPower reports the nominal (median)
// power; the channel applies the per-link draw through LinkRxPower.
type Shadowing struct {
	Base     phy.Propagation
	SigmaDB  float64
	MaxDevDB float64
	Seed     int64

	// cache memoises per-link linear gains. A simulation run owns its
	// RadioParams (scenario.Generate builds fresh ones per run) and is one
	// goroutine, so the map needs no guard.
	cache map[uint64]float64
}

// NewShadowing builds the shadowing wrapper; deviations derive from seed.
func NewShadowing(base phy.Propagation, sigmaDB, maxDevDB float64, seed int64) *Shadowing {
	return &Shadowing{
		Base:     base,
		SigmaDB:  sigmaDB,
		MaxDevDB: maxDevDB,
		Seed:     seed,
		cache:    make(map[uint64]float64),
	}
}

// RxPower implements phy.Propagation with the nominal (median) power.
func (s *Shadowing) RxPower(txPower, d float64) float64 { return s.Base.RxPower(txPower, d) }

// linkGain returns the linear power factor of link a–b.
func (s *Shadowing) linkGain(a, b pkt.NodeID) float64 {
	i, j := a, b
	if j < i {
		i, j = j, i
	}
	key := uint64(uint32(i))<<32 | uint64(uint32(j))
	if g, ok := s.cache[key]; ok {
		return g
	}
	z, _ := gaussPair(sim.DeriveSeed(s.Seed, fmt.Sprintf("shadow|%d|%d", i, j)))
	dev := z * s.SigmaDB
	if dev > s.MaxDevDB {
		dev = s.MaxDevDB
	} else if dev < -s.MaxDevDB {
		dev = -s.MaxDevDB
	}
	g := dbToLinear(dev)
	if s.cache == nil {
		s.cache = make(map[uint64]float64)
	}
	s.cache[key] = g
	return g
}

// LinkRxPower implements phy.LinkPropagation.
func (s *Shadowing) LinkRxPower(txPower, d float64, from, to pkt.NodeID, _ uint64) float64 {
	return s.Base.RxPower(txPower, d) * s.linkGain(from, to)
}

// MaxGainLinear implements phy.LinkPropagation: the clamp is the bound.
func (s *Shadowing) MaxGainLinear() float64 { return dbToLinear(s.MaxDevDB) }

// Fading is small-scale Ricean fading (K = 0 degenerates to Rayleigh)
// around a nominal model: every (transmission, receiver) leg draws an
// independent unit-mean power factor
//
//	g = ((x+√(2K))² + y²) / (2(K+1)),  x, y ~ N(0, 1)
//
// clamped above at MaxGain, with (x, y) content-derived from
// sim.DeriveSeedValues(seed, from, to, txSeq). Keying the draw on the
// channel-wide transmission sequence — not on evaluation order — is what
// keeps the spatial-index and brute-force transmit paths bit-identical:
// they probe different candidate sets but agree on every probed leg.
type Fading struct {
	Base    phy.Propagation
	K       float64 // linear Rice factor (0 = Rayleigh)
	MaxGain float64 // linear clamp on the power factor
	Seed    int64
}

// NewFading builds the fading wrapper; maxGainDB clamps the upward draws.
func NewFading(base phy.Propagation, k, maxGainDB float64, seed int64) *Fading {
	return &Fading{
		Base:    base,
		K:       k,
		MaxGain: dbToLinear(maxGainDB),
		Seed:    sim.DeriveSeed(seed, "fade"),
	}
}

// RxPower implements phy.Propagation with the nominal (unit-mean) power.
func (f *Fading) RxPower(txPower, d float64) float64 { return f.Base.RxPower(txPower, d) }

// legGain returns the fading power factor of one transmission leg.
func (f *Fading) legGain(from, to pkt.NodeID, txSeq uint64) float64 {
	x, y := gaussPair(sim.DeriveSeedValues(f.Seed, int64(from), int64(to), int64(txSeq)))
	los := math.Sqrt(2 * f.K)
	// float64(x*y) rounds the product, so no CPU fuses it into the sum.
	g := (float64((x+los)*(x+los)) + float64(y*y)) / (2 * (f.K + 1))
	if g > f.MaxGain {
		g = f.MaxGain
	}
	return g
}

// LinkRxPower implements phy.LinkPropagation.
func (f *Fading) LinkRxPower(txPower, d float64, from, to pkt.NodeID, txSeq uint64) float64 {
	return f.Base.RxPower(txPower, d) * f.legGain(from, to, txSeq)
}

// MaxGainLinear implements phy.LinkPropagation: the clamp is the bound.
func (f *Fading) MaxGainLinear() float64 { return f.MaxGain }
