package radio

import (
	"math"
	"reflect"
	"testing"

	"adhocsim/internal/phy"
)

// TestDefaultModelMatchesLegacyPath: the registry's zero-valued resolution
// must reproduce the pre-registry scenario radio logic bit-for-bit — the
// parity bridge the golden seed tests lean on.
func TestDefaultModelMatchesLegacyPath(t *testing.T) {
	got, err := New("", Env{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, phy.DefaultParams()) {
		t.Fatalf("zero env = %+v, want DefaultParams %+v", got, phy.DefaultParams())
	}
	// TxRange 250 with no CS override is the DefaultParams special case
	// (2.2×250 is not exactly 550 in floats).
	got, err = New("tworay", Env{TxRange: 250}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, phy.DefaultParams()) {
		t.Fatalf("tx 250 = %+v, want DefaultParams", got)
	}
	// Explicit ranges go through ParamsForRange, exactly.
	got, err = New("TwoRay", Env{TxRange: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := phy.ParamsForRange(100, 220.00000000000003); got.RxThreshold != want.RxThreshold {
		// Compare via the same expression the legacy code used.
		want = phy.ParamsForRange(100, 2.2*100)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tx 100 = %+v, want ParamsForRange(100, 2.2*100)", got)
		}
	}
}

// TestRangesHonoured: every built-in model's thresholds imply exactly the
// env's reception and carrier-sense ranges under its nominal propagation.
func TestRangesHonoured(t *testing.T) {
	for _, name := range Models.Names() {
		p, err := New(name, Env{TxRange: 180, CSRange: 400, Seed: 9}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := p.RxRange(); math.Abs(r-180) > 1 {
			t.Fatalf("%s: rx range %.2f, want 180", name, r)
		}
		if r := p.CSRange(); math.Abs(r-400) > 1 {
			t.Fatalf("%s: cs range %.2f, want 400", name, r)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBuilderValidation: unknown names, unknown parameters, out-of-range
// parameters and inverted ranges must all fail at resolution time.
func TestBuilderValidation(t *testing.T) {
	bad := []struct {
		name   string
		env    Env
		params map[string]float64
	}{
		{"warpdrive", Env{}, nil},
		{"tworay", Env{}, map[string]float64{"sigma_db": 1}},             // unknown param for this model
		{"tworay", Env{}, map[string]float64{"capture_ratio": 1}},        // ratio must exceed 1
		{"tworay", Env{}, map[string]float64{"capture_ratio": 0.5}},      // "
		{"tworay", Env{TxRange: -1}, nil},                                // negative range
		{"tworay", Env{TxRange: 300, CSRange: 200}, nil},                 // cs below rx
		{"freespace", Env{}, map[string]float64{"exponent": 3}},          // unknown param
		{"pathloss", Env{}, map[string]float64{"exponent": -1}},          // non-positive exponent
		{"pathloss", Env{}, map[string]float64{"ref_dist_m": 0}},         // non-positive d0
		{"shadowing", Env{}, map[string]float64{"sigma_db": -2}},         // negative sigma
		{"shadowing", Env{}, map[string]float64{"max_dev_db": -1}},       // negative clamp
		{"shadowing", Env{}, map[string]float64{"sigma": 4}},             // misspelled key
		{"ricean", Env{}, map[string]float64{"max_gain_db": -3}},         // negative clamp
		{"rayleigh", Env{}, map[string]float64{"k_db": 6}},               // rayleigh has no K
		{"rayleigh", Env{}, map[string]float64{"noise_dbm": math.NaN()}}, // NaN noise fails Validate
	}
	for i, tc := range bad {
		if _, err := New(tc.name, tc.env, tc.params); err == nil {
			t.Fatalf("bad model %d (%s %v) accepted", i, tc.name, tc.params)
		}
	}
}

// TestNoiseParam: noise_dbm converts to Watts on every builder.
func TestNoiseParam(t *testing.T) {
	p, err := New("tworay", Env{}, map[string]float64{"noise_dbm": -90})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1e-12; math.Abs(p.NoiseW-want)/want > 1e-9 {
		t.Fatalf("NoiseW = %g, want %g", p.NoiseW, want)
	}
	p, err = New("tworay", Env{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NoiseW != 0 {
		t.Fatalf("default NoiseW = %g, want 0", p.NoiseW)
	}
}

// TestCSRangeAloneKeepsDefaultRx: a carrier-sense range with no reception
// range leaves the reception range at the documented 250 m default under
// every model.
func TestCSRangeAloneKeepsDefaultRx(t *testing.T) {
	for _, name := range Models.Names() {
		p, err := New(name, Env{CSRange: 700}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := p.RxRange(); math.Abs(r-250) > 1 {
			t.Errorf("%s: rx range %.2f, want 250", name, r)
		}
		if r := p.CSRange(); math.Abs(r-700) > 1 {
			t.Errorf("%s: cs range %.2f, want 700", name, r)
		}
	}
}
