// Package phy models the shared wireless medium: signal propagation,
// carrier sense, frame reception, capture and collisions. It reproduces the
// CMU Monarch ns-2 physical layer: two-ray ground reflection propagation, a
// 250 m reception range and a 550 m carrier-sense/interference range at the
// standard WaveLAN-style parameters. Stochastic models (log-normal
// shadowing, Ricean/Rayleigh fading; see internal/radio) plug in through
// the LinkPropagation extension, and Config.SINR replaces the pairwise
// capture test with cumulative-interference reception.
package phy

import (
	"fmt"
	"math"

	"adhocsim/internal/pkt"
)

// SpeedOfLight in metres per second, for propagation delay.
const SpeedOfLight = 299792458.0

// Propagation computes received signal power as a function of distance.
type Propagation interface {
	// RxPower returns the received power in Watts at distance d metres
	// for a transmit power of txPower Watts. For stochastic models this
	// is the nominal (median) power: range derivations and the spatial
	// index reason about it, while the per-link/per-transmission draw
	// goes through LinkPropagation.
	RxPower(txPower, d float64) float64
}

// LinkPropagation is an optional Propagation extension for models whose
// received power depends on the identity of the link or of the individual
// transmission — log-normal shadowing (per-link static deviation) and
// Ricean/Rayleigh fading (per-reception draw). The channel consults it on
// the transmit path when the scenario's Prop implements it; RxPower keeps
// returning the nominal power.
//
// txSeq is the channel-wide sequence number of the transmission, so a
// fading model can draw one deterministic factor per (transmission,
// receiver) leg regardless of the order receivers are probed in — the
// spatial index and the brute-force loop probe different candidate sets,
// and only content-derived draws keep them bit-identical.
//
// MaxGainLinear bounds how far above the nominal RxPower a single link or
// reception can land (a linear power factor ≥ 1). The channel widens its
// candidate query by this factor so the distance-pruning spatial index can
// never miss a lucky link that clears the carrier-sense threshold from
// beyond the nominal range. Models must clamp their draws to honour it.
type LinkPropagation interface {
	Propagation
	LinkRxPower(txPower, d float64, from, to pkt.NodeID, txSeq uint64) float64
	MaxGainLinear() float64
}

// MaxGain returns the propagation model's upward deviation bound: its
// MaxGainLinear when it is a LinkPropagation, else exactly 1
// (deterministic models never exceed their nominal power).
func MaxGain(prop Propagation) float64 {
	if lp, ok := prop.(LinkPropagation); ok {
		return lp.MaxGainLinear()
	}
	return 1
}

// FreeSpace is the Friis free-space model: Pr = Pt·Gt·Gr·λ² / ((4π)²·d²·L).
type FreeSpace struct {
	Gt, Gr float64 // antenna gains (dimensionless)
	Lambda float64 // wavelength, metres
	L      float64 // system loss ≥ 1
}

// RxPower implements Propagation.
func (m FreeSpace) RxPower(txPower, d float64) float64 {
	if d <= 0 {
		return txPower
	}
	den := 16 * math.Pi * math.Pi * d * d * m.L
	return txPower * m.Gt * m.Gr * m.Lambda * m.Lambda / den
}

// TwoRayGround is the two-ray ground-reflection model used by the CMU
// extensions: free space up to the crossover distance, then
// Pr = Pt·Gt·Gr·ht²·hr² / d⁴.
type TwoRayGround struct {
	Gt, Gr float64 // antenna gains
	Ht, Hr float64 // antenna heights, metres
	Lambda float64 // wavelength, metres
	L      float64 // system loss ≥ 1
}

// Crossover returns the distance at which the two-ray term takes over:
// 4π·ht·hr/λ.
func (m TwoRayGround) Crossover() float64 {
	return 4 * math.Pi * m.Ht * m.Hr / m.Lambda
}

// RxPower implements Propagation.
func (m TwoRayGround) RxPower(txPower, d float64) float64 {
	if d <= 0 {
		return txPower
	}
	if d < m.Crossover() {
		fs := FreeSpace{Gt: m.Gt, Gr: m.Gr, Lambda: m.Lambda, L: m.L}
		return fs.RxPower(txPower, d)
	}
	return txPower * m.Gt * m.Gr * m.Ht * m.Ht * m.Hr * m.Hr / (d * d * d * d * m.L)
}

// PathLossExp is the tunable path-loss-exponent model (ns-2's shadowing
// mean path loss): free space out to the reference distance D0, then
// Pr(d) = Pr_fs(D0)·(D0/d)^Exp. Exp=2 degenerates to free space; urban
// measurements run 2.7–5.
type PathLossExp struct {
	FS  FreeSpace
	D0  float64 // reference distance, metres (> 0)
	Exp float64 // path-loss exponent (> 0)
}

// RxPower implements Propagation.
func (m PathLossExp) RxPower(txPower, d float64) float64 {
	if d <= m.D0 {
		return m.FS.RxPower(txPower, d)
	}
	return m.FS.RxPower(txPower, m.D0) * math.Pow(m.D0/d, m.Exp)
}

// RadioParams bundles the physical-layer constants of a scenario.
type RadioParams struct {
	TxPower      float64     // Watts
	RxThreshold  float64     // min power for successful reception, Watts
	CSThreshold  float64     // min power to raise carrier sense, Watts
	CaptureRatio float64     // power ratio for capture, and the SINR threshold (ns-2 uses 10 = 10 dB)
	NoiseW       float64     // noise floor in Watts, the SINR denominator's constant term (0 = interference-limited)
	Prop         Propagation // propagation model
}

// Validate reports parameter errors. It subsumes the constructor-time
// capture-ratio panic the channel used to raise: specs and campaigns
// resolve radio models through internal/radio, which validates here, so a
// bad capture ratio or threshold ordering fails at spec/campaign
// submission time instead of deep inside a worker goroutine.
func (p RadioParams) Validate() error {
	// Each bound is written to fail on NaN: !(x > 0), where x <= 0 would
	// let NaN through.
	if p.Prop == nil {
		return fmt.Errorf("phy: nil propagation model")
	}
	if !(p.TxPower > 0) {
		return fmt.Errorf("phy: non-positive transmit power %v W", p.TxPower)
	}
	if !(p.RxThreshold > 0) || !(p.CSThreshold > 0) {
		return fmt.Errorf("phy: non-positive threshold (rx %v W, cs %v W)", p.RxThreshold, p.CSThreshold)
	}
	if p.CSThreshold > p.RxThreshold {
		return fmt.Errorf("phy: carrier-sense threshold %v W above reception threshold %v W (CS range must cover rx range)",
			p.CSThreshold, p.RxThreshold)
	}
	if !(p.CaptureRatio > 1) {
		return fmt.Errorf("phy: capture ratio must exceed 1, got %v", p.CaptureRatio)
	}
	if !(p.NoiseW >= 0) {
		return fmt.Errorf("phy: invalid noise floor %v W", p.NoiseW)
	}
	if g := MaxGain(p.Prop); !(g >= 1) || math.IsInf(g, 1) {
		return fmt.Errorf("phy: propagation gain bound %v outside [1, ∞)", g)
	}
	return nil
}

// DefaultParams returns the CMU/ns-2 914 MHz WaveLAN parameterisation:
// two-ray ground, 0.28183815 W transmit power, thresholds tuned for a 250 m
// reception range and 550 m carrier-sense range, 10 dB capture.
func DefaultParams() RadioParams {
	lambda := SpeedOfLight / 914e6
	prop := TwoRayGround{Gt: 1, Gr: 1, Ht: 1.5, Hr: 1.5, Lambda: lambda, L: 1}
	const txPower = 0.28183815
	return RadioParams{
		TxPower: txPower,
		// Derive thresholds from the model itself so that the ranges
		// are exactly 250 m / 550 m regardless of float rounding.
		RxThreshold:  prop.RxPower(txPower, 250),
		CSThreshold:  prop.RxPower(txPower, 550),
		CaptureRatio: 10,
		Prop:         prop,
	}
}

// ParamsForRange returns parameters with the reception range set to rx
// metres and the carrier-sense range to cs metres (cs ≥ rx), keeping the
// default two-ray model. Used by scenarios that sweep transmission range.
func ParamsForRange(rx, cs float64) RadioParams {
	p := DefaultParams()
	prop := p.Prop.(TwoRayGround)
	p.RxThreshold = prop.RxPower(p.TxPower, rx)
	p.CSThreshold = prop.RxPower(p.TxPower, cs)
	return p
}

// RxRange computes the reception range implied by the parameters (the
// distance at which received power falls to RxThreshold), by bisection.
func (p RadioParams) RxRange() float64 { return p.rangeFor(p.RxThreshold) }

// CSRange computes the carrier-sense range implied by the parameters.
func (p RadioParams) CSRange() float64 { return p.rangeFor(p.CSThreshold) }

func (p RadioParams) rangeFor(thresh float64) float64 {
	lo, hi := 0.0, 1e5
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if p.Prop.RxPower(p.TxPower, mid) >= thresh {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
