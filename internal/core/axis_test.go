package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
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

// resolveAxis resolves one axis against the base as CrossAxes does.
func resolveAxis(t *testing.T, ax Axis, base scenario.Spec) resolvedAxis {
	t.Helper()
	a, err := ax.resolve(base)
	if err != nil {
		t.Fatalf("axis %+v: %v", ax, err)
	}
	return a
}

func TestAxisByName(t *testing.T) {
	axis := resolveAxis(t, Axis{Name: "txrange"}, scenario.Default())
	if axis.label != "txrange_m" || len(axis.values) == 0 {
		t.Fatalf("axis = %+v", axis)
	}
	spec := scenario.Default()
	axis.apply(&spec, 123)
	if spec.TxRange != 123 {
		t.Fatalf("apply did not set TxRange: %v", spec.TxRange)
	}
	if _, err := CrossAxes(scenario.Default(), []Axis{{Name: "warp-factor"}}, 100); err == nil {
		t.Fatal("unknown axis accepted")
	}
	for _, name := range AxisNames() {
		if a := resolveAxis(t, Axis{Name: name}, scenario.Default()); len(a.values) == 0 {
			t.Errorf("catalogue axis %q resolved to no values", name)
		}
	}
}

// TestCrossAxes pins what Expand builds its grid from: row-major points
// (last axis fastest) with their ticks and specs, one nil point for no
// axes, and the refusals — an empty list, an axis listed twice, and a
// product over the bound, which is found before any point is enumerated.
func TestCrossAxes(t *testing.T) {
	base := scenario.Default()
	mob, err := ModelAxis("mobility", []string{"waypoint", "manhattan"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := CrossAxes(base, []Axis{TxRangeAxis([]float64{150, 250}), mob}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"txrange_m", "mobility_model"}; !reflect.DeepEqual(g.Labels, want) {
		t.Fatalf("labels = %v, want %v", g.Labels, want)
	}
	if want := [][]float64{{150, 0}, {150, 1}, {250, 0}, {250, 1}}; !reflect.DeepEqual(g.Points, want) {
		t.Fatalf("points = %v, want %v", g.Points, want)
	}
	if g.Ticks[3][1] != "manhattan" || g.Ticks[3][0] != "250" {
		t.Fatalf("ticks = %v", g.Ticks)
	}
	if s := g.Specs[3]; s.TxRange != 250 || s.Mobility.Name != "manhattan" {
		t.Fatalf("spec 3 = %+v", s)
	}
	if g, err := CrossAxes(base, nil, 1); err != nil || len(g.Points) != 1 || g.Points[0] != nil {
		t.Fatalf("no axes: %+v, %v", g, err)
	}
	huge := make([]float64, 1000)
	for i := range huge {
		huge[i] = float64(i)
	}
	for _, tc := range []struct {
		axes []Axis
		want string
	}{
		{[]Axis{PauseAxis([]float64{})}, "has no values"},
		{[]Axis{{Name: "mobility", Models: []string{}}}, "has no models"},
		{[]Axis{{Name: "mobility", Values: []float64{}, Models: []string{"waypoint"}}}, "both values and models"},
		{[]Axis{{Name: "pause", Models: []string{"waypoint"}}}, "does not take model names"},
		{[]Axis{PauseAxis([]float64{0}), {Name: " Pause", Values: []float64{1}}}, "listed twice"},
		{[]Axis{PauseAxis(huge), RateAxis(huge), SpeedAxis(huge), TxRangeAxis(huge)}, "more than 4 points"},
	} {
		if _, err := CrossAxes(base, tc.axes, 4); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("axes %+v: err = %v, want %q", tc.axes, err, tc.want)
		}
	}
}

// TestPauseAxisDefaultsScaleWithDuration pins the v2 default-resolution
// contract: PauseAxis(nil) must not sweep past the scenario horizon.
func TestPauseAxisDefaultsScaleWithDuration(t *testing.T) {
	base := scenario.Default()
	base.Duration = 150 * sim.Second
	a := resolveAxis(t, PauseAxis(nil), base)
	if last := a.values[len(a.values)-1]; last != 150 {
		t.Fatalf("pause defaults = %v, want scaled to 150 s horizon", a.values)
	}
}

func TestScaleAxisHoldsDensity(t *testing.T) {
	base := scenario.Default() // 40 nodes over 1500×300
	density := float64(base.Nodes) / (base.Area.W * base.Area.H)
	a := resolveAxis(t, ScaleAxis(nil), base)
	if a.label != "nodes_scaled" {
		t.Fatalf("label = %q", a.label)
	}
	for _, x := range []float64{50, 200, 500, 5000, 10000} {
		s := base
		a.apply(&s, x)
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
}

// mustModelAxis is ModelAxis, resolved, for names the test knows are
// registered.
func mustModelAxis(t *testing.T, kind string, names ...string) resolvedAxis {
	t.Helper()
	a, err := ModelAxis(kind, names)
	if err != nil {
		t.Fatal(err)
	}
	return resolveAxis(t, a, scenario.Default())
}

func TestModelAxes(t *testing.T) {
	a := mustModelAxis(t, "mobility", "waypoint", "gauss-markov")
	if a.label != "mobility_model" || len(a.values) != 2 {
		t.Fatalf("axis = %+v", a)
	}
	if a.format(1) != "gauss-markov" {
		t.Fatalf("format(1) = %q", a.format(1))
	}
	s := scenario.Default()
	a.apply(&s, 1)
	if s.Mobility.Name != "gauss-markov" {
		t.Fatalf("apply left mobility %+v", s.Mobility)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	tr := mustModelAxis(t, "traffic") // full registry
	if len(tr.values) < 3 {
		t.Fatalf("registry traffic axis too small: %+v", tr)
	}
	tr.apply(&s, 0) // sorted registry: "cbr" first
	if s.Traffic.Name != "cbr" {
		t.Fatalf("traffic = %+v", s.Traffic)
	}

	if _, err := ModelAxis("mobility", []string{"teleport"}); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
	if _, err := ModelAxis("pause", []string{"waypoint"}); err == nil {
		t.Fatal("non-model axis accepted model names")
	}
	// One resolver: every spelling of a kind resolves by name and through
	// ModelAxis, with the whole registry when no names are given.
	for spelling, label := range map[string]string{
		"mobility": "mobility_model", "Traffic_Model": "traffic_model", "radio": "radio_model",
		"lifecycle": "lifecycle_model", " churn ": "lifecycle_model",
	} {
		if axis := resolveAxis(t, Axis{Name: spelling}, scenario.Default()); axis.label != label || len(axis.values) < 3 {
			t.Errorf("axis %q = %+v", spelling, axis)
		}
		if axis := mustModelAxis(t, spelling); axis.label != label {
			t.Errorf("ModelAxis(%q) = %+v", spelling, axis)
		}
	}
	if _, err := (Axis{Name: "mobility", Values: []float64{0}, Models: []string{"waypoint"}}).resolve(s); err == nil {
		t.Fatal("axis with both values and models accepted")
	}
}

// TestRadioModelAxis: the radio axis applies registry names into
// Spec.Radio, keeps the base spec's tuned params when re-selecting its own
// model, and — unlike params — preserves the SINR reception switch across
// model changes (propagation and reception are orthogonal dimensions).
func TestRadioModelAxis(t *testing.T) {
	a := mustModelAxis(t, "radio", "tworay", "shadowing")
	if a.label != "radio_model" || a.format(1) != "shadowing" {
		t.Fatalf("axis = %+v", a)
	}
	s := scenario.Default()
	s.Radio.SINR = true
	a.apply(&s, 1)
	if s.Radio.Name != "shadowing" || !s.Radio.SINR {
		t.Fatalf("apply left radio %+v", s.Radio)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-selecting the base's own model keeps its params.
	s.Radio.Params = map[string]float64{"sigma_db": 7}
	a.apply(&s, 1)
	if s.Radio.Params["sigma_db"] != 7 {
		t.Fatalf("base params dropped: %+v", s.Radio)
	}
	// Switching models resets params but not the reception mode; the empty
	// base name aliases tworay.
	a.apply(&s, 0)
	if s.Radio.Name != "tworay" || s.Radio.Params != nil || !s.Radio.SINR {
		t.Fatalf("switch mishandled radio %+v", s.Radio)
	}
	s2 := scenario.Default()
	s2.Radio.Params = map[string]float64{"capture_ratio": 6}
	a.apply(&s2, 0)
	if s2.Radio.Params["capture_ratio"] != 6 {
		t.Fatalf("default-name params dropped: %+v", s2.Radio)
	}

	if _, err := ModelAxis("radio", []string{"warpdrive"}); err == nil {
		t.Fatal("unknown radio model accepted")
	}
	if _, err := ModelAxis("radio", []string{"tworay", "TwoRay"}); err == nil {
		t.Fatal("duplicate radio models accepted")
	}
	if axis := resolveAxis(t, Axis{Name: "radio"}, s); axis.label != "radio_model" || len(axis.values) < 6 {
		t.Fatalf("catalogue radio axis = %+v", axis)
	}
}

// TestModelAxisRejectsBadIndices: the float-valued route into the model
// axes (campaign "values") must reject out-of-range or
// fractional indices at resolution time — a silent Apply no-op would run a
// mislabeled default-model cell.
func TestModelAxisRejectsBadIndices(t *testing.T) {
	base := scenario.Default()
	for _, vs := range [][]float64{{0, 99}, {-1}, {1.5}, {0, 0}} {
		if _, err := (Axis{Name: "mobility", Values: vs}).resolve(base); err == nil {
			t.Fatalf("values %v accepted", vs)
		}
	}
	if _, err := (Axis{Name: "traffic", Values: []float64{0, 2}}).resolve(base); err != nil {
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
	a.apply(&s, 1) // gauss-markov: the base's own model
	if s.Mobility.Params["alpha"] != 0.95 {
		t.Fatalf("base params dropped: %+v", s.Mobility)
	}
	a.apply(&s, 0) // waypoint: a different model, params reset
	if s.Mobility.Name != "waypoint" || s.Mobility.Params != nil {
		t.Fatalf("switch did not reset params: %+v", s.Mobility)
	}
	// The empty base name aliases the default model.
	s2 := scenario.Default()
	s2.Mobility.Params = map[string]float64{"pause_s": 5}
	a.apply(&s2, 0) // waypoint == default
	if s2.Mobility.Params["pause_s"] != 5 {
		t.Fatalf("default-name params dropped: %+v", s2.Mobility)
	}
}
