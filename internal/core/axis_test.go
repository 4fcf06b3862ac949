package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

func TestRunHonoursPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, RunConfig{Spec: smallSpec(), Protocol: DSR, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAxisByName(t *testing.T) {
	axis, err := AxisByName("txrange", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if axis.Label != "txrange_m" || len(axis.Values) == 0 {
		t.Fatalf("axis = %+v", axis)
	}
	spec := scenario.Default()
	axis.Apply(&spec, 123)
	if spec.TxRange != 123 {
		t.Fatalf("apply did not set TxRange: %v", spec.TxRange)
	}
	if _, err := AxisByName("warp-factor", nil, nil); err == nil {
		t.Fatal("unknown axis accepted")
	}
	for _, name := range AxisNames() {
		a, err := AxisByName(name, nil, nil)
		if err != nil {
			t.Errorf("catalogue axis %q: %v", name, err)
			continue
		}
		r, err := a.Resolved(scenario.Default())
		if err != nil {
			t.Errorf("catalogue axis %q does not resolve: %v", name, err)
		} else if len(r.Values) == 0 {
			t.Errorf("catalogue axis %q resolved to no values", name)
		}
	}
}

// TestPauseAxisDefaultsScaleWithDuration pins the v2 default-resolution
// contract: PauseAxis(nil) must not sweep past the scenario horizon.
func TestPauseAxisDefaultsScaleWithDuration(t *testing.T) {
	base := scenario.Default()
	base.Duration = 150 * sim.Second
	a, err := PauseAxis(nil).Resolved(base)
	if err != nil {
		t.Fatal(err)
	}
	if last := a.Values[len(a.Values)-1]; last != 150 {
		t.Fatalf("pause defaults = %v, want scaled to 150 s horizon", a.Values)
	}
}

func TestScaleAxisHoldsDensity(t *testing.T) {
	base := scenario.Default() // 40 nodes over 1500×300
	density := float64(base.Nodes) / (base.Area.W * base.Area.H)
	a := ScaleAxis(nil)
	if a.Label != "nodes_scaled" {
		t.Fatalf("label = %q", a.Label)
	}
	for _, x := range []float64{50, 200, 500, 5000, 10000} {
		s := base
		a.Apply(&s, x)
		if s.Nodes != int(x) {
			t.Fatalf("nodes = %d, want %d", s.Nodes, int(x))
		}
		got := float64(s.Nodes) / (s.Area.W * s.Area.H)
		if rel := (got - density) / density; rel > 0.01 || rel < -0.01 {
			t.Fatalf("x=%v: density %.3g, want %.3g (area %+v)", x, got, density, s.Area)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("x=%v: scaled spec invalid: %v", x, err)
		}
	}
	if _, err := AxisByName("scale", nil, nil); err != nil {
		t.Fatalf("scale axis not in catalogue: %v", err)
	}
}

// mustModelAxis is ModelAxis for names the test knows are registered.
func mustModelAxis(t *testing.T, kind string, names ...string) Axis {
	t.Helper()
	a, err := ModelAxis(kind, names)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestModelAxes(t *testing.T) {
	a := mustModelAxis(t, "mobility", "waypoint", "gauss-markov")
	if a.Label != "mobility_model" || len(a.Values) != 2 {
		t.Fatalf("axis = %+v", a)
	}
	if a.FormatValue(1) != "gauss-markov" {
		t.Fatalf("FormatValue(1) = %q", a.FormatValue(1))
	}
	s := scenario.Default()
	a.Apply(&s, 1)
	if s.Mobility.Name != "gauss-markov" {
		t.Fatalf("Apply left mobility %+v", s.Mobility)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	tr := mustModelAxis(t, "traffic") // full registry
	if len(tr.Values) < 3 {
		t.Fatalf("registry traffic axis too small: %+v", tr)
	}
	tr.Apply(&s, 0) // sorted registry: "cbr" first
	if s.Traffic.Name != "cbr" {
		t.Fatalf("traffic = %+v", s.Traffic)
	}

	if _, err := ModelAxis("mobility", []string{"teleport"}); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
	if _, err := ModelAxis("pause", []string{"waypoint"}); err == nil {
		t.Fatal("non-model axis accepted model names")
	}
	// One resolver: every spelling of a kind resolves on both routes, with
	// the whole registry when no names are given.
	for spelling, label := range map[string]string{
		"mobility": "mobility_model", "Traffic_Model": "traffic_model", "radio": "radio_model",
		"lifecycle": "lifecycle_model", " churn ": "lifecycle_model",
	} {
		axis, err := AxisByName(spelling, nil, nil)
		if err != nil || axis.Label != label || len(axis.Values) < 3 {
			t.Errorf("AxisByName(%q) = %+v, %v", spelling, axis, err)
		}
		if axis, err = ModelAxis(spelling, nil); err != nil || axis.Label != label {
			t.Errorf("ModelAxis(%q) = %+v, %v", spelling, axis, err)
		}
	}
	if _, err := AxisByName("mobility", []float64{0}, []string{"waypoint"}); err == nil {
		t.Fatal("axis with both values and models accepted")
	}
}

// TestRadioModelAxis: the radio axis applies registry names into
// Spec.Radio, keeps the base spec's tuned params when re-selecting its own
// model, and — unlike params — preserves the SINR reception switch across
// model changes (propagation and reception are orthogonal dimensions).
func TestRadioModelAxis(t *testing.T) {
	a := mustModelAxis(t, "radio", "tworay", "shadowing")
	if a.Label != "radio_model" || a.FormatValue(1) != "shadowing" {
		t.Fatalf("axis = %+v", a)
	}
	s := scenario.Default()
	s.Radio.SINR = true
	a.Apply(&s, 1)
	if s.Radio.Name != "shadowing" || !s.Radio.SINR {
		t.Fatalf("Apply left radio %+v", s.Radio)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-selecting the base's own model keeps its params.
	s.Radio.Params = map[string]float64{"sigma_db": 7}
	a.Apply(&s, 1)
	if s.Radio.Params["sigma_db"] != 7 {
		t.Fatalf("base params dropped: %+v", s.Radio)
	}
	// Switching models resets params but not the reception mode; the empty
	// base name aliases tworay.
	a.Apply(&s, 0)
	if s.Radio.Name != "tworay" || s.Radio.Params != nil || !s.Radio.SINR {
		t.Fatalf("switch mishandled radio %+v", s.Radio)
	}
	s2 := scenario.Default()
	s2.Radio.Params = map[string]float64{"capture_ratio": 6}
	a.Apply(&s2, 0)
	if s2.Radio.Params["capture_ratio"] != 6 {
		t.Fatalf("default-name params dropped: %+v", s2.Radio)
	}

	if _, err := ModelAxis("radio", []string{"warpdrive"}); err == nil {
		t.Fatal("unknown radio model accepted")
	}
	if _, err := ModelAxis("radio", []string{"tworay", "TwoRay"}); err == nil {
		t.Fatal("duplicate radio models accepted")
	}
	axis, err := AxisByName("radio", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if axis.Label != "radio_model" || len(axis.Values) < 6 {
		t.Fatalf("catalogue radio axis = %+v", axis)
	}
}

// TestModelAxisRejectsBadIndices: the float-valued route into the model
// axes (AxisByName / campaign "values") must reject out-of-range or
// fractional indices at resolution time — a silent Apply no-op would run a
// mislabeled default-model cell.
func TestModelAxisRejectsBadIndices(t *testing.T) {
	base := scenario.Default()
	for _, vs := range [][]float64{{0, 99}, {-1}, {1.5}, {0, 0}} {
		axis, err := AxisByName("mobility", vs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := axis.Resolved(base); err == nil {
			t.Fatalf("values %v accepted", vs)
		}
	}
	axis, err := AxisByName("traffic", []float64{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axis.Resolved(base); err != nil {
		t.Fatalf("valid indices rejected: %v", err)
	}
}

// TestModelAxisRejectsDuplicateNames: duplicate model names would expand
// into cells with identical labels and therefore identical replication
// seeds.
func TestModelAxisRejectsDuplicateNames(t *testing.T) {
	if _, err := ModelAxis("mobility", []string{"waypoint", "Waypoint"}); err == nil {
		t.Fatal("duplicate model names accepted")
	}
	if _, err := ModelAxis("traffic", []string{"cbr", "cbr"}); err == nil {
		t.Fatal("duplicate traffic models accepted")
	}
}

// TestModelAxisKeepsBaseParams: re-selecting the base spec's own model on
// a model axis must keep its tuned Params; switching models resets them.
func TestModelAxisKeepsBaseParams(t *testing.T) {
	a := mustModelAxis(t, "mobility", "waypoint", "gauss-markov")
	s := scenario.Default()
	s.Mobility = scenario.MobilitySpec{Name: "gauss-markov", Params: map[string]float64{"alpha": 0.95}}
	a.Apply(&s, 1) // gauss-markov: the base's own model
	if s.Mobility.Params["alpha"] != 0.95 {
		t.Fatalf("base params dropped: %+v", s.Mobility)
	}
	a.Apply(&s, 0) // waypoint: a different model, params reset
	if s.Mobility.Name != "waypoint" || s.Mobility.Params != nil {
		t.Fatalf("switch did not reset params: %+v", s.Mobility)
	}
	// The empty base name aliases the default model.
	s2 := scenario.Default()
	s2.Mobility.Params = map[string]float64{"pause_s": 5}
	a.Apply(&s2, 0) // waypoint == default
	if s2.Mobility.Params["pause_s"] != 5 {
		t.Fatalf("default-name params dropped: %+v", s2.Mobility)
	}
}

// TestByNameRebuildsTheAxis: a sweep names each axis in a campaign spec by
// ByName, so AxisByName of its result must rebuild the same labels and
// specs for every catalogue axis, a model axis visiting a subset of its
// models included.
func TestByNameRebuildsTheAxis(t *testing.T) {
	base := scenario.Default()
	subset, err := ModelAxis("mobility", []string{"waypoint", "gauss-markov", "manhattan"})
	if err != nil {
		t.Fatal(err)
	}
	axes := []Axis{subset.WithValues([]float64{2, 0})}
	for _, name := range AxisNames() {
		a, err := AxisByName(name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		axes = append(axes, a)
	}
	for _, a := range axes {
		a, err := a.Resolved(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AxisByName(a.ByName())
		if err == nil {
			b, err = b.Resolved(base)
		}
		if err != nil {
			t.Fatalf("%s: %v", a.Label, err)
		}
		if b.Label != a.Label || len(b.Values) != len(a.Values) {
			t.Fatalf("%s rebuilt as %s with %d values, want %d", a.Label, b.Label, len(b.Values), len(a.Values))
		}
		for i := range a.Values {
			sa, sb := base, base
			a.Apply(&sa, a.Values[i])
			b.Apply(&sb, b.Values[i])
			if !reflect.DeepEqual(sa, sb) || a.FormatValue(a.Values[i]) != b.FormatValue(b.Values[i]) {
				t.Errorf("%s point %d: rebuilt axis writes %+v as %q, want %+v as %q", a.Label, i,
					sb, b.FormatValue(b.Values[i]), sa, a.FormatValue(a.Values[i]))
			}
		}
	}
}
