package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/geo"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// TestSweepCustomTxRangeAxis sweeps the transmission range — an axis the v1
// API (four hard-coded sweeps) could not express.
func TestSweepCustomTxRangeAxis(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{DSR}
	opts.Seeds = []int64{1}
	axis := TxRangeAxis([]float64{120, 250})
	sweep, err := Sweep(context.Background(), opts, axis)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.XLabel != "txrange_m" || len(sweep.Xs) != 2 {
		t.Fatalf("sweep axis = %q %v", sweep.XLabel, sweep.Xs)
	}
	short, long := sweep.Cells[DSR][0], sweep.Cells[DSR][1]
	if short.DataSent == 0 || long.DataSent == 0 {
		t.Fatal("degenerate sweep cells")
	}
	// Halving the radio range on the same scenario must change the
	// simulation outcome (fewer links, longer or broken routes).
	if short.DataDelivered == long.DataDelivered && short.RoutingTxPackets == long.RoutingTxPackets {
		t.Fatalf("txrange axis had no effect: %+v vs %+v", short, long)
	}
}

// TestPauseZeroViewsMatchSinglePointSweep pins what lets the figure
// harness read Figure 5 and Tables 1–2 off the pause sweep: column 0 of a
// sweep starting at pause 0 is exactly a pause-0-only sweep, so the views
// agree whichever sweep they read.
func TestPauseZeroViewsMatchSinglePointSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 30 * sim.Second
	opts.Protocols = []string{AODV, DSR}
	opts.Seeds = []int64{1, 2}

	full, err := Sweep(context.Background(), opts, PauseAxis([]float64{0, 30}))
	if err != nil {
		t.Fatal(err)
	}
	point, err := Sweep(context.Background(), opts, PauseAxis([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(SummaryTable(full), SummaryTable(point)) {
		t.Fatal("summary table differs between the pause sweep and the pause-0 sweep")
	}
	if !reflect.DeepEqual(PathOptimality(full), PathOptimality(point)) {
		t.Fatal("path optimality differs between the pause sweep and the pause-0 sweep")
	}
}

func TestSweepCancellation(t *testing.T) {
	// A deliberately long job queue: full-scale scenarios that would take
	// tens of seconds to finish. Cancelling shortly after the start must
	// interrupt in-flight simulations, not just pending dispatch.
	opts := DefaultOptions()
	opts.Protocols = []string{DSR, AODV}
	opts.Seeds = []int64{1, 2}
	opts.Base.Duration = 600 * sim.Second

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Sweep(ctx, opts, PauseAxis([]float64{0, 300, 600}))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestRunHonoursPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, RunConfig{Spec: smallSpec(), Protocol: DSR, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepProgressReporting(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 20 * sim.Second
	opts.Protocols = []string{DSR}
	opts.Seeds = []int64{1, 2}
	var calls []Progress
	opts.OnProgress = func(p Progress) { calls = append(calls, p) }

	if _, err := Sweep(context.Background(), opts, PauseAxis([]float64{0, 20})); err != nil {
		t.Fatal(err)
	}
	const total = 1 * 2 * 2 // protocols × points × seeds
	if len(calls) != total {
		t.Fatalf("progress calls = %d, want %d", len(calls), total)
	}
	for i, p := range calls {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("call %d = %+v (Done must be monotone, Total fixed)", i, p)
		}
		if p.Protocol != DSR || p.Axis != "pause_s" {
			t.Fatalf("call %d annotations = %+v", i, p)
		}
	}
}

// TestProgressPrintsModelNames: a model axis's values are indices into its
// name list; the progress line must print the name, as every other label
// does, not the index.
func TestProgressPrintsModelNames(t *testing.T) {
	axis, err := ModelAxis("mobility", []string{"waypoint", "manhattan"})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 10 * sim.Second
	opts.Protocols = []string{DSR}
	opts.Seeds = []int64{1}
	opts.Workers = 1
	var out strings.Builder
	opts.OnProgress = ProgressPrinter(&out)
	if _, err := Sweep(context.Background(), opts, axis); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mobility_model=waypoint seed 1", "mobility_model=manhattan seed 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("progress output lacks %q:\n%q", want, out.String())
		}
	}
}

func TestGridCrossProduct(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 20 * sim.Second
	opts.Protocols = []string{DSR}
	opts.Seeds = []int64{1}

	grid, err := Grid(context.Background(), opts,
		TxRangeAxis([]float64{150, 250}),
		RateAxis([]float64{2, 8}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Labels) != 2 || grid.Labels[0] != "txrange_m" || grid.Labels[1] != "rate_pps" {
		t.Fatalf("labels = %v", grid.Labels)
	}
	wantPoints := [][]float64{{150, 2}, {150, 8}, {250, 2}, {250, 8}}
	if len(grid.Points) != len(wantPoints) {
		t.Fatalf("points = %v", grid.Points)
	}
	for i, want := range wantPoints {
		if grid.Points[i][0] != want[0] || grid.Points[i][1] != want[1] {
			t.Fatalf("point %d = %v, want %v (last axis fastest)", i, grid.Points[i], want)
		}
	}
	cells := grid.Cells[DSR]
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The high-rate points must carry more offered traffic than the
	// low-rate points at the same range.
	if cells[1].DataSent <= cells[0].DataSent {
		t.Fatalf("rate axis had no effect: %d vs %d sent", cells[1].DataSent, cells[0].DataSent)
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

func TestSweepRejectsInvalidAxis(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = smallSpec()
	if _, err := Sweep(context.Background(), opts, Axis{Label: "broken"}); err == nil {
		t.Fatal("axis without Apply accepted")
	}
	if _, err := Sweep(context.Background(), opts, TxRangeAxis(nil).WithValues(nil)); err == nil {
		t.Fatal("axis without values accepted")
	}
	// An explicit empty slice must error loudly, never fall back to the
	// full default sweep — even for PauseAxis, whose nil form has a
	// Defaults hook.
	if _, err := Sweep(context.Background(), opts, PauseAxis([]float64{})); err == nil {
		t.Fatal("empty pause list accepted")
	}
	if _, err := Sweep(context.Background(), opts, NodesAxis([]float64{})); err == nil {
		t.Fatal("empty density list accepted")
	}
	// Pause and counts convert to integers, where NaN and ±Inf are left to
	// the implementation.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, axis := range []Axis{PauseAxis([]float64{v}), NodesAxis([]float64{v}), PayloadAxis([]float64{10, v})} {
			if _, err := Sweep(context.Background(), opts, axis); err == nil || !strings.Contains(err.Error(), "not a finite number") {
				t.Errorf("axis %q value %v: err = %v, want it refused as not finite", axis.Label, v, err)
			}
		}
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

// TestModelAxisSweepProducesDistinctCells runs a tiny real sweep across
// models of each kind — the radio kind under both reception modes — and
// requires one cell per model, traffic in every cell, and at least half the
// cells distinct: the end-to-end guarantee that the axis actually reshapes
// the workload (the channel condition reaches the PHY, the churn schedule
// the nodes).
func TestModelAxisSweepProducesDistinctCells(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		sinr       bool
		models     []string
	}{
		{"mobility", "mobility", false, []string{"waypoint", "gauss-markov", "manhattan"}},
		{"traffic", "traffic", false, []string{"cbr", "poisson", "expoo"}},
		{"radio", "radio", false, []string{"tworay", "freespace", "shadowing"}},
		{"radio-sinr", "radio", true, []string{"tworay", "freespace", "shadowing"}},
		{"lifecycle", "lifecycle", false, []string{"static", "onoff-fail"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Base.Nodes = 12
			opts.Base.Area = geo.Rect{W: 600, H: 300}
			opts.Base.Duration = 20 * sim.Second
			opts.Base.Sources = 3
			opts.Base.Radio.SINR = tc.sinr
			opts.Protocols = []string{DSR}
			opts.Seeds = []int64{1}
			sweep, err := Sweep(context.Background(), opts, mustModelAxis(t, tc.kind, tc.models...))
			if err != nil {
				t.Fatal(err)
			}
			cells := sweep.Cells[DSR]
			if len(cells) != len(tc.models) || !reflect.DeepEqual(sweep.XTicks, tc.models) {
				t.Fatalf("%d cells with ticks %v, want one per model of %v", len(cells), sweep.XTicks, tc.models)
			}
			distinct := 0
			for i, c := range cells {
				if c.DataSent == 0 {
					t.Errorf("%s cell sent no data", tc.models[i])
				}
				if !slices.ContainsFunc(cells[:i], func(o stats.Results) bool { return reflect.DeepEqual(o, c) }) {
					distinct++
				}
			}
			if distinct < 2 || 2*distinct < len(cells) {
				t.Fatalf("%d distinct cells of %d (axis not applied?)", distinct, len(cells))
			}
		})
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

// TestSweepTicksCarryModelNames: sweep results and their renders/JSON must
// name the swept models, not the opaque indices.
func TestSweepTicksCarryModelNames(t *testing.T) {
	opts := DefaultOptions()
	opts.Base.Nodes = 10
	opts.Base.Area = geo.Rect{W: 500, H: 300}
	opts.Base.Duration = 10 * sim.Second
	opts.Base.Sources = 2
	opts.Protocols = []string{DSR}
	opts.Seeds = []int64{1}
	sweep, err := Sweep(context.Background(), opts, mustModelAxis(t, "mobility", "waypoint", "gauss-markov"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.XTicks) != 2 || sweep.XTicks[1] != "gauss-markov" {
		t.Fatalf("ticks = %v", sweep.XTicks)
	}
	fig := Figure{ID: "m", Title: "models", Metric: MetricPDR, Sweep: sweep}
	if txt := RenderFigure(fig); !strings.Contains(txt, "gauss-markov") {
		t.Fatalf("table render lost model names:\n%s", txt)
	}
	if csv := RenderFigureCSV(fig); !strings.Contains(csv, "gauss-markov,DSR,") {
		t.Fatalf("csv render lost model names:\n%s", csv)
	}
	b, err := FigureJSON(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"x_ticks"`) || !strings.Contains(string(b), "gauss-markov") {
		t.Fatalf("figure JSON lost model names:\n%s", b)
	}
}
