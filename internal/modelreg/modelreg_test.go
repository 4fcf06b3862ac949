package modelreg

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/sim"
)

type builder func() int

func one() int { return 1 }

func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"Waypoint":         "waypoint",
		"  Gauss-Markov\t": "gauss-markov",
		"cbr":              "cbr",
		"   ":              "",
	} {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegister(t *testing.T) {
	r := New[builder]("mobility", "model", "waypoint", Canonical)
	if err := r.Register("Waypoint", one); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what, name string
		b          builder
		wantErr    string
	}{
		{"duplicate", "waypoint", one, "already registered"},
		{"duplicate modulo case and space", "  WAYPOINT ", one, "already registered"},
		{"empty name", "", one, "empty model name"},
		{"blank name", "  ", one, "empty model name"},
		{"nil builder", "manhattan", nil, "nil builder"},
	} {
		err := r.Register(tc.name, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.what, err, tc.wantErr)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "mobility: ") {
			t.Errorf("%s: error %q lacks the kind prefix", tc.what, err)
		}
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"waypoint"}) {
		t.Errorf("Names() = %v after rejected registrations", got)
	}
}

func TestLookup(t *testing.T) {
	r := New[builder]("traffic", "model", "cbr", Canonical)
	r.MustRegister("expoo", func() int { return 2 })
	r.MustRegister("CBR", one)
	r.MustRegister("burst", func() int { return 3 })

	for _, tc := range []struct {
		name, wantKey string
		want          int
	}{
		{"", "cbr", 1}, // the empty name selects the default
		{"  ", "cbr", 1},
		{" ExpOO ", "expoo", 2},
		{"burst", "burst", 3},
	} {
		b, key, err := r.Lookup(tc.name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", tc.name, err)
			continue
		}
		if key != tc.wantKey || b() != tc.want {
			t.Errorf("Lookup(%q) = builder %d under %q, want %d under %q", tc.name, b(), key, tc.want, tc.wantKey)
		}
		if !r.Known(tc.name) {
			t.Errorf("Known(%q) = false for a name Lookup resolves", tc.name)
		}
	}

	b, _, err := r.Lookup("Poisson")
	if err == nil || b != nil {
		t.Fatalf("Lookup of an unknown model = (%v, %v)", b, err)
	}
	if want := `traffic: unknown model "Poisson" (registered: burst, cbr, expoo)`; err.Error() != want {
		t.Errorf("unknown-model error = %q, want %q", err, want)
	}
	if r.Known("Poisson") {
		t.Error("Known reports an unregistered model")
	}

	// A registry whose default was never registered fails the empty name.
	if _, _, err := New[builder]("radio", "model", "tworay", Canonical).Lookup(""); err == nil {
		t.Error("empty-name lookup resolved with no default registered")
	}
}

// TestModels: Build wraps builder and check-hook failures with the kind and
// canonical model name, passes the environment through, and ParamNames
// reports the keys a dry build on the zero environment reads.
func TestModels(t *testing.T) {
	k := NewModels("gain", "unit", map[string]func(int, Params) (int, error){
		"unit": func(scale int, p Params) (int, error) { return scale, p.Err() },
		"Linear": func(scale int, p Params) (int, error) {
			return scale * int(p.Get("slope", 2)+p.Get("offset", 0)), p.Err()
		},
	}, func(m int, _ int) error {
		if m < 0 {
			return errors.New("negative gain")
		}
		return nil
	})
	if got, err := k.Build("", 7, nil); err != nil || got != 7 {
		t.Errorf("Build of the default = (%d, %v), want 7", got, err)
	}
	if got, err := k.Build(" LINEAR ", 3, map[string]float64{"slope": 4}); err != nil || got != 12 {
		t.Errorf("Build(linear, slope 4) = (%d, %v), want 12", got, err)
	}
	for what, tc := range map[string]struct {
		params  map[string]float64
		wantErr string
	}{
		"builder error":    {map[string]float64{"slop": 1}, `gain: model "linear": unknown parameter "slop" (known: offset, slope)`},
		"check-hook error": {map[string]float64{"slope": -1}, `gain: model "linear": negative gain`},
	} {
		if _, err := k.Build("linear", 1, tc.params); err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: err = %v, want %q", what, err, tc.wantErr)
		}
	}
	if _, err := k.Build("cubic", 1, nil); err == nil || !strings.Contains(err.Error(), "registered: linear, unit") {
		t.Errorf("unknown model: err = %v", err)
	}
	if got, err := k.ParamNames("linear"); err != nil || !reflect.DeepEqual(got, []string{"offset", "slope"}) {
		t.Errorf("ParamNames(linear) = (%v, %v)", got, err)
	}
	if _, err := k.ParamNames("cubic"); err == nil {
		t.Error("ParamNames accepted an unregistered name")
	}
	var l Listing = k
	if l.Default() != "unit" || !l.Known("") {
		t.Errorf("Listing = default %q", l.Default())
	}
}

func TestParams(t *testing.T) {
	p := NewParams(map[string]float64{"alpha": 0.8, "pause_s": 2.5, "alhpa": 1, "zeta": 9})
	if got := p.Get("alpha", 0.5); got != 0.8 {
		t.Errorf("Get(alpha) = %v, want the supplied 0.8", got)
	}
	if got := p.Get("sigma", 1.5); got != 1.5 {
		t.Errorf("Get(sigma) = %v, want the default 1.5", got)
	}
	if got := p.Duration("pause_s", sim.Second); got != sim.Seconds(2.5) {
		t.Errorf("Duration(pause_s) = %v, want 2.5 s", got)
	}
	if got := p.Duration("warmup_s", 3*sim.Second); got != 3*sim.Second {
		t.Errorf("Duration(warmup_s) = %v, want the default 3 s", got)
	}
	if got, want := p.Used(), []string{"alpha", "pause_s", "sigma", "warmup_s"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Used() = %v, want %v", got, want)
	}

	// Two supplied keys were never read; Err names the first in sorted
	// order and offers every key that was read, defaults included.
	err := p.Err()
	if err == nil {
		t.Fatal("Err() = nil with unread keys")
	}
	if want := `unknown parameter "alhpa" (known: alpha, pause_s, sigma, warmup_s)`; err.Error() != want {
		t.Errorf("Err() = %q, want %q", err, want)
	}
	p.Get("alhpa", 0)
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), `"zeta"`) {
		t.Errorf("Err() = %v, want it to name zeta once alhpa is read", err)
	}
	p.Get("zeta", 0)
	if err := p.Err(); err != nil {
		t.Errorf("Err() = %v with every supplied key read", err)
	}

	// NaN and ±Inf parse from "nan" and "inf" on the command line; Err
	// names the first non-finite key, once no key is unknown.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := NewParams(map[string]float64{"alpha": 0.5, "sigma": v, "zeta": v})
		p.Get("alpha", 0)
		p.Get("sigma", 0)
		if err := p.Err(); err == nil || !strings.Contains(err.Error(), `unknown parameter "zeta"`) {
			t.Errorf("%v: Err() = %v, want the unknown zeta first", v, err)
		}
		p.Get("zeta", 0)
		if err := p.Err(); err == nil || !strings.Contains(err.Error(), `parameter "sigma" is `) {
			t.Errorf("%v: Err() = %v, want it to name sigma", v, err)
		}
	}

	// A nil map is an empty parameter set.
	empty := NewParams(nil)
	if empty.Get("x", 7) != 7 || empty.Err() != nil {
		t.Error("nil parameter map does not behave as empty")
	}
}
