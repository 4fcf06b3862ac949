package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/geo"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// The sweep harness's tests: campaign.Sweep, Grid and RunReplicatedContext
// run the axis catalogue, the progress line and the renders of this
// package end to end.

// smallSpec is a fast mobile scenario: 20 nodes, 60 simulated seconds, 5
// CBR flows.
func smallSpec() scenario.Spec {
	s := scenario.Default()
	s.Nodes = 20
	s.Area = geo.Rect{W: 800, H: 300}
	s.Duration = 60 * sim.Second
	s.Sources = 5
	s.StartMin = 5 * sim.Second
	s.StartMax = 15 * sim.Second
	return s
}

func mustModelAxis(t *testing.T, kind string, names ...string) core.Axis {
	t.Helper()
	a, err := core.ModelAxis(kind, names)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSweepCustomTxRangeAxis sweeps the transmission range — an axis the v1
// API (four hard-coded sweeps) could not express.
func TestSweepCustomTxRangeAxis(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{core.DSR}
	opts.Seeds = []int64{1}
	axis := core.TxRangeAxis([]float64{120, 250})
	sweep, err := campaign.Sweep(context.Background(), opts, axis)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.XLabel != "txrange_m" || len(sweep.Xs) != 2 {
		t.Fatalf("sweep axis = %q %v", sweep.XLabel, sweep.Xs)
	}
	short, long := sweep.Cells[core.DSR][0], sweep.Cells[core.DSR][1]
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
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 30 * sim.Second
	opts.Protocols = []string{core.AODV, core.DSR}
	opts.Seeds = []int64{1, 2}

	full, err := campaign.Sweep(context.Background(), opts, core.PauseAxis([]float64{0, 30}))
	if err != nil {
		t.Fatal(err)
	}
	point, err := campaign.Sweep(context.Background(), opts, core.PauseAxis([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(core.SummaryTable(full), core.SummaryTable(point)) {
		t.Fatal("summary table differs between the pause sweep and the pause-0 sweep")
	}
	if !reflect.DeepEqual(core.PathOptimality(full), core.PathOptimality(point)) {
		t.Fatal("path optimality differs between the pause sweep and the pause-0 sweep")
	}
}

func TestSweepCancellation(t *testing.T) {
	// A deliberately long job queue: full-scale scenarios that would take
	// tens of seconds to finish. Cancelling shortly after the start must
	// interrupt in-flight simulations, not just pending dispatch.
	opts := core.DefaultOptions()
	opts.Protocols = []string{core.DSR, core.AODV}
	opts.Seeds = []int64{1, 2}
	opts.Base.Duration = 600 * sim.Second

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := campaign.Sweep(ctx, opts, core.PauseAxis([]float64{0, 300, 600}))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSweepProgressReporting(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 20 * sim.Second
	opts.Protocols = []string{core.DSR}
	opts.Seeds = []int64{1, 2}
	var calls []core.Progress
	opts.OnProgress = func(p core.Progress) { calls = append(calls, p) }

	if _, err := campaign.Sweep(context.Background(), opts, core.PauseAxis([]float64{0, 20})); err != nil {
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
		if p.Protocol != core.DSR || p.Axis != "pause_s" {
			t.Fatalf("call %d annotations = %+v", i, p)
		}
	}
}

// TestProgressPrintsModelNames: a model axis's values are indices into its
// name list; the progress line must print the name, as every other label
// does, not the index.
func TestProgressPrintsModelNames(t *testing.T) {
	axis, err := core.ModelAxis("mobility", []string{"waypoint", "manhattan"})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 10 * sim.Second
	opts.Protocols = []string{core.DSR}
	opts.Seeds = []int64{1}
	opts.Workers = 1
	var out strings.Builder
	opts.OnProgress = core.ProgressPrinter(&out)
	if _, err := campaign.Sweep(context.Background(), opts, axis); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mobility_model=waypoint seed 1", "mobility_model=manhattan seed 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("progress output lacks %q:\n%q", want, out.String())
		}
	}
}

func TestGridCrossProduct(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	opts.Base.Duration = 20 * sim.Second
	opts.Protocols = []string{core.DSR}
	opts.Seeds = []int64{1}

	grid, err := campaign.Grid(context.Background(), opts,
		core.TxRangeAxis([]float64{150, 250}),
		core.RateAxis([]float64{2, 8}),
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
	cells := grid.Cells[core.DSR]
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The high-rate points must carry more offered traffic than the
	// low-rate points at the same range.
	if cells[1].DataSent <= cells[0].DataSent {
		t.Fatalf("rate axis had no effect: %d vs %d sent", cells[1].DataSent, cells[0].DataSent)
	}
}

func TestSweepRejectsInvalidAxis(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Base = smallSpec()
	if _, err := campaign.Sweep(context.Background(), opts, core.Axis{Name: "broken"}); err == nil {
		t.Fatal("unknown axis accepted")
	}
	// An explicit empty slice must error loudly, never fall back to the
	// full default sweep — even for PauseAxis, whose nil form derives its
	// defaults from the base spec.
	if _, err := campaign.Sweep(context.Background(), opts, core.PauseAxis([]float64{})); err == nil {
		t.Fatal("empty pause list accepted")
	}
	if _, err := campaign.Sweep(context.Background(), opts, core.NodesAxis([]float64{})); err == nil {
		t.Fatal("empty density list accepted")
	}
	// Pause and counts convert to integers, where NaN and ±Inf are left to
	// the implementation.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, axis := range []core.Axis{core.PauseAxis([]float64{v}), core.NodesAxis([]float64{v}), core.PayloadAxis([]float64{10, v})} {
			if _, err := campaign.Sweep(context.Background(), opts, axis); err == nil || !strings.Contains(err.Error(), "not a finite number") {
				t.Errorf("axis %q value %v: err = %v, want it refused as not finite", axis.Name, v, err)
			}
		}
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
			opts := core.DefaultOptions()
			opts.Base.Nodes = 12
			opts.Base.Area = geo.Rect{W: 600, H: 300}
			opts.Base.Duration = 20 * sim.Second
			opts.Base.Sources = 3
			opts.Base.Radio.SINR = tc.sinr
			opts.Protocols = []string{core.DSR}
			opts.Seeds = []int64{1}
			sweep, err := campaign.Sweep(context.Background(), opts, mustModelAxis(t, tc.kind, tc.models...))
			if err != nil {
				t.Fatal(err)
			}
			cells := sweep.Cells[core.DSR]
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

// TestSweepTicksCarryModelNames: sweep results and their renders/JSON must
// name the swept models, not the opaque indices.
func TestSweepTicksCarryModelNames(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Base.Nodes = 10
	opts.Base.Area = geo.Rect{W: 500, H: 300}
	opts.Base.Duration = 10 * sim.Second
	opts.Base.Sources = 2
	opts.Protocols = []string{core.DSR}
	opts.Seeds = []int64{1}
	sweep, err := campaign.Sweep(context.Background(), opts, mustModelAxis(t, "mobility", "waypoint", "gauss-markov"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.XTicks) != 2 || sweep.XTicks[1] != "gauss-markov" {
		t.Fatalf("ticks = %v", sweep.XTicks)
	}
	fig := core.Figure{ID: "m", Title: "models", Metric: core.MetricPDR, Sweep: sweep}
	if txt := core.RenderFigure(fig); !strings.Contains(txt, "gauss-markov") {
		t.Fatalf("table render lost model names:\n%s", txt)
	}
	if csv := core.RenderFigureCSV(fig); !strings.Contains(csv, "gauss-markov,DSR,") {
		t.Fatalf("csv render lost model names:\n%s", csv)
	}
	b, err := core.FigureJSON(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"x_ticks"`) || !strings.Contains(string(b), "gauss-markov") {
		t.Fatalf("figure JSON lost model names:\n%s", b)
	}
}

func TestRunReplicatedMergesSeeds(t *testing.T) {
	spec := smallSpec()
	spec.Duration = 30 * sim.Second
	res, err := campaign.RunReplicatedContext(context.Background(), core.RunConfig{Spec: spec, Protocol: core.DSR}, []int64{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.Run(context.Background(), core.RunConfig{Spec: spec, Protocol: core.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent <= single.DataSent {
		t.Fatalf("merged DataSent %d not cumulative over seeds (single %d)", res.DataSent, single.DataSent)
	}
}
