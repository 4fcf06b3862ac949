package radio

import (
	"math"
	"testing"

	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
)

// linkProp resolves a model and returns its LinkPropagation view.
func linkProp(t *testing.T, name string, seed int64, params map[string]float64) (phy.RadioParams, phy.LinkPropagation) {
	t.Helper()
	p, err := New(name, Env{Seed: seed}, params)
	if err != nil {
		t.Fatal(err)
	}
	lp, ok := p.Prop.(phy.LinkPropagation)
	if !ok {
		t.Fatalf("%s does not implement LinkPropagation", name)
	}
	return p, lp
}

// TestShadowingCrossProcessDeterminism: two independent resolutions from
// the same run seed must produce identical per-link powers (the draws are
// content-derived, so "independent resolution" is exactly what a second
// process — or a campaign resume — does), and a different seed must
// produce a different deviation field.
func TestShadowingCrossProcessDeterminism(t *testing.T) {
	pa, a := linkProp(t, "shadowing", 42, nil)
	_, b := linkProp(t, "shadowing", 42, nil)
	_, c := linkProp(t, "shadowing", 43, nil)
	diff := 0
	for i := pkt.NodeID(0); i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			pw := a.LinkRxPower(pa.TxPower, 200, i, j, 1)
			if pw != b.LinkRxPower(pa.TxPower, 200, i, j, 1) {
				t.Fatalf("link %d-%d: same seed, different power", i, j)
			}
			// txSeq must not matter: shadowing is static per link.
			if pw != a.LinkRxPower(pa.TxPower, 200, i, j, 99) {
				t.Fatalf("link %d-%d: shadowing varies with txSeq", i, j)
			}
			// Symmetric field: i→j and j→i share one deviation.
			if pw != a.LinkRxPower(pa.TxPower, 200, j, i, 1) {
				t.Fatalf("link %d-%d: asymmetric shadowing", i, j)
			}
			if pw != c.LinkRxPower(pa.TxPower, 200, i, j, 1) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different run seeds produced an identical deviation field")
	}
}

// TestFadingCrossProcessDeterminism: per-reception draws replay identically
// from (seed, from, to, txSeq) and vary with every component.
func TestFadingCrossProcessDeterminism(t *testing.T) {
	for _, name := range []string{"ricean", "rayleigh"} {
		pa, a := linkProp(t, name, 7, nil)
		_, b := linkProp(t, name, 7, nil)
		_, c := linkProp(t, name, 8, nil)
		diffSeed, diffSeq := 0, 0
		for seq := uint64(1); seq <= 50; seq++ {
			pw := a.LinkRxPower(pa.TxPower, 150, 3, 4, seq)
			if pw != b.LinkRxPower(pa.TxPower, 150, 3, 4, seq) {
				t.Fatalf("%s: same (seed,leg,seq), different power", name)
			}
			if pw != c.LinkRxPower(pa.TxPower, 150, 3, 4, seq) {
				diffSeed++
			}
			if pw != a.LinkRxPower(pa.TxPower, 150, 3, 4, seq+1000) {
				diffSeq++
			}
		}
		if diffSeed == 0 {
			t.Fatalf("%s: run seed does not shape fading", name)
		}
		if diffSeq == 0 {
			t.Fatalf("%s: transmission sequence does not shape fading", name)
		}
	}
}

// TestStochasticGainClamped: no draw may exceed the declared MaxGainLinear
// bound — the contract that keeps the spatial index's padded query exact.
func TestStochasticGainClamped(t *testing.T) {
	for _, name := range []string{"shadowing", "ricean", "rayleigh"} {
		p, lp := linkProp(t, name, 11, nil)
		bound := phy.MaxGain(p.Prop)
		if bound < 1 {
			t.Fatalf("%s: bound %v < 1", name, bound)
		}
		nominal := p.Prop.RxPower(p.TxPower, 300)
		for i := pkt.NodeID(0); i < 40; i++ {
			for seq := uint64(1); seq <= 25; seq++ {
				pw := lp.LinkRxPower(p.TxPower, 300, i, i+1, seq)
				if pw > nominal*bound*(1+1e-12) {
					t.Fatalf("%s: draw %g exceeds nominal %g × bound %g", name, pw, nominal, bound)
				}
			}
		}
	}
}

// TestFadingUnitMean: the unclamped Ricean/Rayleigh power factor is
// unit-mean by construction; with the default 6 dB clamp the sample mean
// over many legs must stay near (slightly below) 1, so fading models do
// not silently shift the link budget.
func TestFadingUnitMean(t *testing.T) {
	for _, name := range []string{"ricean", "rayleigh"} {
		p, _ := linkProp(t, name, 5, map[string]float64{"max_gain_db": 30})
		f := p.Prop.(*Fading)
		sum := 0.0
		const n = 20_000
		for i := 0; i < n; i++ {
			sum += f.legGain(1, 2, uint64(i))
		}
		if mean := sum / n; mean < 0.93 || mean > 1.07 {
			t.Fatalf("%s: mean fading gain %v, want ≈1", name, mean)
		}
	}
}

// TestShadowingDeviationSpread: with a generous clamp the deviations'
// sample standard deviation tracks sigma_db.
func TestShadowingDeviationSpread(t *testing.T) {
	p, err := New("shadowing", Env{Seed: 3}, map[string]float64{"sigma_db": 6, "max_dev_db": 40})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Prop.(*Shadowing)
	var sum, sumSq float64
	n := 0
	for i := pkt.NodeID(0); i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			dev := 10 * math.Log10(s.linkGain(i, j))
			sum += dev
			sumSq += dev * dev
			n++
		}
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.5 {
		t.Fatalf("deviation mean %v dB, want ≈0", mean)
	}
	if sd < 5.4 || sd > 6.6 {
		t.Fatalf("deviation sd %v dB, want ≈6", sd)
	}
}

// TestRiceanConcentratesAroundLOS: a strong Rice factor keeps draws near
// unity while Rayleigh spreads them — the K knob must actually matter.
func TestRiceanConcentratesAroundLOS(t *testing.T) {
	strong, err := New("ricean", Env{Seed: 2}, map[string]float64{"k_db": 15})
	if err != nil {
		t.Fatal(err)
	}
	ray, err := New("rayleigh", Env{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	varOf := func(p phy.RadioParams) float64 {
		f := p.Prop.(*Fading)
		var sum, sumSq float64
		const n = 5000
		for i := 0; i < n; i++ {
			g := f.legGain(0, 1, uint64(i))
			sum += g
			sumSq += g * g
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	if vs, vr := varOf(strong), varOf(ray); vs >= vr/2 {
		t.Fatalf("K=15 dB variance %v not well below Rayleigh %v", vs, vr)
	}
}
