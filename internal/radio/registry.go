// Package radio is the table of named, serializable radio/propagation
// models — the third scenario-model kind next to mobility and traffic.
// A scenario selects a model by name with a JSON-friendly parameter map
// (scenario.RadioSpec) and the builder resolves it to concrete
// phy.RadioParams, so campaigns and the HTTP service can sweep channel
// conditions the way they already sweep mobility and traffic families.
//
// Built-ins: "tworay" (the study's CMU two-ray ground default),
// "freespace", "pathloss" (tunable exponent), "shadowing" (log-normal
// per-link deviations), "ricean" and "rayleigh" (per-reception fading).
// The stochastic models derive every draw from the run seed
// (sim.DeriveSeed / sim.DeriveSeedValues), so runs stay bit-reproducible
// across processes and under campaign checkpoint/resume, and they clamp
// their deviations and declare the bound (phy.LinkPropagation's
// MaxGainLinear) so the spatial index's distance pruning stays exact.
package radio

import (
	"fmt"
	"math"

	"adhocsim/internal/modelreg"
	"adhocsim/internal/phy"
)

// Env carries the scenario-level radio parameters into a model builder:
// the generic range knobs every spec exposes, and the run seed stochastic
// models root their per-link/per-reception derivations in. Model-specific
// parameters arrive separately as a name→value map, so a radio spec stays
// JSON-serializable end to end (scenario.RadioSpec).
type Env struct {
	// TxRange is the nominal reception range in metres; 0 selects the
	// study default (250 m).
	TxRange float64
	// CSRange is the carrier-sense range in metres; 0 selects 2.2×TxRange
	// (550 m at the default).
	CSRange float64
	// Seed is the scenario's run seed — the root of shadowing/fading
	// derivation. Validation dry-runs pass 0; the draws themselves are
	// content-derived, so any seed exercises the same code paths.
	Seed int64
}

// ranges resolves the env's range fields to concrete rx/cs ranges.
func (e Env) ranges() (rx, cs float64, err error) {
	if e.TxRange < 0 || e.CSRange < 0 {
		return 0, 0, fmt.Errorf("negative range (tx %v m, cs %v m)", e.TxRange, e.CSRange)
	}
	rx = e.TxRange
	if rx == 0 {
		rx = 250
	}
	cs = e.CSRange
	if cs == 0 {
		cs = 2.2 * rx
	}
	if cs < rx {
		return 0, 0, fmt.Errorf("carrier-sense range %v m below reception range %v m", cs, rx)
	}
	return rx, cs, nil
}

// Models is the radio-model table; an empty name selects the study's
// two-ray ground reflection. Built parameters are validated eagerly
// (phy.RadioParams.Validate), so a capture ratio at or below 1, inverted
// thresholds, or an out-of-range model parameter fails at Spec.Validate /
// campaign-submission time rather than mid-campaign.
var Models = modelreg.NewModels("radio", "tworay", map[string]func(Env, modelreg.Params) (phy.RadioParams, error){
	// tworay reproduces the pre-registry scenario logic bit-for-bit: the
	// zero-valued env yields exactly phy.DefaultParams, and explicit
	// ranges go through phy.ParamsForRange — the golden seed-parity tests
	// pin this.
	"tworay": func(env Env, p modelreg.Params) (phy.RadioParams, error) {
		rx, cs, err := env.ranges()
		if err != nil {
			return phy.RadioParams{}, err
		}
		params := phy.DefaultParams()
		if env.TxRange > 0 && env.TxRange != 250 || env.CSRange > 0 {
			params = phy.ParamsForRange(rx, cs)
		}
		common(&params, p)
		return params, p.Err()
	},
	"freespace": func(env Env, p modelreg.Params) (phy.RadioParams, error) {
		return nominal(env, p, func() (phy.Propagation, error) { return studyFreeSpace(), nil })
	},
	"pathloss": func(env Env, p modelreg.Params) (phy.RadioParams, error) {
		return nominal(env, p, func() (phy.Propagation, error) { return pathLossFor(p, 3) })
	},
	"shadowing": func(env Env, p modelreg.Params) (phy.RadioParams, error) {
		return nominal(env, p, func() (phy.Propagation, error) {
			base, err := pathLossFor(p, 2.8)
			if err != nil {
				return nil, err
			}
			sigma := p.Get("sigma_db", 4)
			maxDev := p.Get("max_dev_db", 2*sigma)
			if sigma < 0 {
				return nil, fmt.Errorf("sigma_db must be non-negative, got %v", sigma)
			}
			if maxDev < 0 {
				return nil, fmt.Errorf("max_dev_db must be non-negative, got %v", maxDev)
			}
			return NewShadowing(base, sigma, maxDev, env.Seed), nil
		})
	},
	"ricean":   fading(6, false),
	"rayleigh": fading(0, true),
}, func(p phy.RadioParams, _ Env) error { return p.Validate() })

// New resolves a radio model name through Models and builds it for the
// given environment.
func New(name string, env Env, params map[string]float64) (phy.RadioParams, error) {
	return Models.Build(name, env, params)
}

// studyTwoRay returns the CMU 914 MHz WaveLAN two-ray parameterisation
// every built-in model anchors to — taken from phy.DefaultParams, not
// re-declared, so the study constants cannot drift between packages.
func studyTwoRay() phy.TwoRayGround {
	return phy.DefaultParams().Prop.(phy.TwoRayGround)
}

// studyFreeSpace returns the free-space component of the study
// parameterisation (unit gains, 914 MHz, no system loss).
func studyFreeSpace() phy.FreeSpace {
	tr := studyTwoRay()
	return phy.FreeSpace{Gt: tr.Gt, Gr: tr.Gr, Lambda: tr.Lambda, L: tr.L}
}

// common applies the parameters every builder understands: the capture /
// SINR power ratio and the noise floor.
func common(p *phy.RadioParams, params modelreg.Params) {
	p.CaptureRatio = params.Get("capture_ratio", p.CaptureRatio)
	if dbm := params.Get("noise_dbm", math.Inf(-1)); !math.IsInf(dbm, -1) {
		p.NoiseW = math.Pow(10, (dbm-30)/10)
	}
}

// pathLossFor builds the tunable-exponent nominal model shared by
// "pathloss" and "shadowing".
func pathLossFor(params modelreg.Params, defExp float64) (phy.PathLossExp, error) {
	exp := params.Get("exponent", defExp)
	d0 := params.Get("ref_dist_m", 1)
	if exp <= 0 {
		return phy.PathLossExp{}, fmt.Errorf("exponent must be positive, got %v", exp)
	}
	if d0 <= 0 {
		return phy.PathLossExp{}, fmt.Errorf("ref_dist_m must be positive, got %v", d0)
	}
	return phy.PathLossExp{FS: studyFreeSpace(), D0: d0, Exp: exp}, nil
}

// nominal builds the parameters of every model but tworay: it resolves the
// env's ranges, then the propagation model prop builds, and derives the
// thresholds so that the reception range under the model's nominal power
// is exactly rx metres and the carrier-sense range cs metres — the
// derivation of phy.ParamsForRange, generalised to any model. Transmit
// power and, unless set, capture ratio come from the study defaults.
func nominal(env Env, p modelreg.Params, prop func() (phy.Propagation, error)) (phy.RadioParams, error) {
	rx, cs, err := env.ranges()
	if err != nil {
		return phy.RadioParams{}, err
	}
	m, err := prop()
	if err != nil {
		return phy.RadioParams{}, err
	}
	params := phy.DefaultParams()
	params.Prop = m
	params.RxThreshold = m.RxPower(params.TxPower, rx)
	params.CSThreshold = m.RxPower(params.TxPower, cs)
	common(&params, p)
	return params, p.Err()
}

// fading builds the Ricean builder with the given default K factor, or
// with fixedRayleigh the Rayleigh one (K = 0, no k_db parameter).
func fading(defaultKdB float64, fixedRayleigh bool) func(Env, modelreg.Params) (phy.RadioParams, error) {
	return func(env Env, p modelreg.Params) (phy.RadioParams, error) {
		return nominal(env, p, func() (phy.Propagation, error) {
			k := 0.0
			if !fixedRayleigh {
				k = math.Pow(10, p.Get("k_db", defaultKdB)/10)
			}
			maxGainDB := p.Get("max_gain_db", 6)
			if maxGainDB < 0 {
				return nil, fmt.Errorf("max_gain_db must be non-negative, got %v", maxGainDB)
			}
			return NewFading(studyTwoRay(), k, maxGainDB, env.Seed), nil
		})
	}
}
