package campaign

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/core"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// tinyScenario is the fast end-to-end scenario used across campaign tests:
// 10 nodes in a small box for 10 simulated seconds.
func tinyScenario() *scenario.Spec {
	s := scenario.Default()
	s.Nodes = 10
	s.Area.W = 600
	s.Duration = 10 * sim.Second
	s.Sources = 3
	return &s
}

func TestSpecExpandDefaults(t *testing.T) {
	plan, err := Spec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Protocols, core.StudyProtocols(); !reflect.DeepEqual(got, want) {
		t.Fatalf("protocols = %v", got)
	}
	if plan.Spec.BaseSeed != 1 || plan.Spec.MaxReps != 3 || plan.Spec.MinReps != 3 {
		t.Fatalf("replication defaults = %+v", plan.Spec)
	}
	if len(plan.Cells) != 5 || plan.MaxRuns() != 15 {
		t.Fatalf("cells = %d, max runs = %d", len(plan.Cells), plan.MaxRuns())
	}
	if plan.Cells[0].Label != "DSR" {
		t.Fatalf("label = %q", plan.Cells[0].Label)
	}
}

func TestSpecExpandGrid(t *testing.T) {
	spec := Spec{
		Scenario:  tinyScenario(),
		Protocols: []string{"dsr", "AODV"},
		Axes: []AxisSpec{
			{Name: "pause", Values: []float64{0, 30}},
			{Name: "rate", Values: []float64{2, 4, 8}},
		},
		MaxReps: 2,
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 2*2*3 {
		t.Fatalf("cells = %d", len(plan.Cells))
	}
	if plan.Cells[0].Label != "DSR|pause_s=0|rate_pps=2" {
		t.Fatalf("label = %q", plan.Cells[0].Label)
	}
	// Last axis fastest, protocol outermost.
	if plan.Cells[1].Label != "DSR|pause_s=0|rate_pps=4" || plan.Cells[6].Protocol != "AODV" {
		t.Fatalf("order: %q / %q", plan.Cells[1].Label, plan.Cells[6].Protocol)
	}
	// Replication r of every cell runs BaseSeed + r, stable across
	// re-expansion.
	plan2, _ := spec.Expand()
	for ci := range plan.Cells {
		for r := 0; r < plan.Spec.MaxReps; r++ {
			s := plan.SeedFor(ci, r)
			if want := plan.Spec.BaseSeed + int64(r); s != want {
				t.Fatalf("cell %d rep %d runs seed %d, want %d", ci, r, s, want)
			}
			if s != plan2.SeedFor(ci, r) {
				t.Fatal("seed not stable across expansions")
			}
		}
	}
	if plan.Hash != plan2.Hash || plan.Hash == "" {
		t.Fatalf("hash unstable: %q vs %q", plan.Hash, plan2.Hash)
	}
}

func TestSpecExpandErrors(t *testing.T) {
	cases := []Spec{
		{Protocols: []string{"NOPE"}},
		{Protocols: []string{"DSR", "dsr"}},
		{Axes: []AxisSpec{{Name: "warp"}}},
		{Axes: []AxisSpec{{Name: "pause", Values: []float64{0}}, {Name: "pause", Values: []float64{30}}}},
		{Epsilon: map[string]float64{"nope": 1}},
		{Epsilon: map[string]float64{"pdr": -1}},
		{MinReps: 5, MaxReps: 2},
		{MaxReps: -1},
	}
	for i, spec := range cases {
		if _, err := spec.Expand(); err == nil {
			t.Fatalf("spec %d accepted", i)
		}
	}
	// Grids are bounded before they are enumerated: four axes of 1 000
	// values would be 10¹² points, six of 10⁴ overflow an int, and either
	// must fail without allocating the cross product.
	values := make([]float64, maxCells)
	for i := range values {
		values[i] = float64(i + 1)
	}
	wide := func(n int, names ...string) Spec {
		spec := Spec{Protocols: []string{"DSR"}, MaxReps: 1}
		for _, name := range names {
			spec.Axes = append(spec.Axes, AxisSpec{Name: name, Values: values[:n]})
		}
		return spec
	}
	tooMany := wide(maxCells/2+1, "pause")
	tooMany.Protocols = []string{"DSR", "AODV"}
	tooLong := wide(100, "pause", "rate")
	tooLong.MaxReps = maxUnits/10_000 + 1
	for name, spec := range map[string]Spec{
		"1e12 points":    wide(1000, "pause", "rate", "speed", "txrange"),
		"overflow":       wide(10_000, "pause", "rate", "speed", "txrange", "payload", "width"),
		"cells":          tooMany,
		"cells*max_reps": tooLong,
	} {
		if _, err := spec.Expand(); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
	if plan, err := wide(50, "pause", "rate").Expand(); err != nil || len(plan.Cells) != 2500 {
		t.Fatalf("50 × 50 grid: %v", err)
	}

	// max_reps=1 with epsilon is valid: the MinReps default clamps to the
	// cap rather than rejecting a field the user never set.
	plan, err := Spec{MaxReps: 1, Epsilon: map[string]float64{"pdr": 5}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.MinReps != 1 {
		t.Fatalf("min_reps defaulted to %d", plan.Spec.MinReps)
	}
}

func TestScenarioPatch(t *testing.T) {
	n, d, w := 12, 42.5, 800.0
	spec := Spec{Base: ScenarioPatch{Nodes: &n, DurationS: &d, AreaW: &w}, MaxReps: 1}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Base.Nodes != 12 || plan.Base.Duration != sim.Seconds(42.5) || plan.Base.Area.W != 800 {
		t.Fatalf("patched base = %+v", plan.Base)
	}
	// Unpatched fields keep study defaults.
	if plan.Base.Sources != 10 || plan.Base.TxRange != 250 {
		t.Fatalf("defaults clobbered: %+v", plan.Base)
	}
}

// TestCampaignMatchesDirectRuns is the core determinism check: a campaign
// cell's merged result must equal merging direct core.Run calls with the
// derived seeds.
func TestCampaignMatchesDirectRuns(t *testing.T) {
	spec := Spec{
		Scenario:  tinyScenario(),
		Protocols: []string{core.DSR, core.Flood},
		MaxReps:   2,
	}
	res, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	plan, _ := spec.Expand()
	for ci, cell := range res.Cells {
		if cell.Reps != 2 || cell.StopReason != StopMaxReps {
			t.Fatalf("cell %d: reps %d, stop %q", ci, cell.Reps, cell.StopReason)
		}
		var reps []stats.Results
		for r := 0; r < 2; r++ {
			direct, err := core.Run(context.Background(), core.RunConfig{
				Spec:     *tinyScenario(),
				Protocol: cell.Protocol,
				Seed:     plan.SeedFor(ci, r),
			})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, direct)
		}
		if want := stats.MergeResults(reps); !reflect.DeepEqual(cell.Merged, want) {
			t.Fatalf("cell %d merged diverges from direct runs", ci)
		}
		pdr := cell.Metrics["pdr"]
		if pdr.N != 2 || math.Abs(pdr.Mean-(reps[0].PDR+reps[1].PDR)*50) > 1e-9 {
			t.Fatalf("cell %d pdr summary = %+v", ci, pdr)
		}
	}
}

// stoppingCampaign builds a campaign whose commits are driven by hand with
// synthetic results, so the sequential rule can be tested without real runs.
func stoppingCampaign(t *testing.T, minReps, maxReps int, eps float64) *Campaign {
	t.Helper()
	c, err := New(Spec{
		Scenario:  tinyScenario(),
		Protocols: []string{core.DSR},
		MinReps:   minReps,
		MaxReps:   maxReps,
		Epsilon:   map[string]float64{"pdr": eps},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSequentialStopping(t *testing.T) {
	// PDR metric values (percent): 80, 80.2, 80.1 → at n=2 the t-based
	// half-width is ≈1.27 (>0.3); at n=3 it is ≈0.25 (≤0.3) → stop at 3.
	pdrs := []float64{0.80, 0.802, 0.801, 0.777, 0.9}
	c := stoppingCampaign(t, 2, 5, 0.3)
	for rep, p := range pdrs {
		c.CompleteUnit(0, rep, stats.Results{PDR: p}, false)
	}
	cs := &c.cells[0]
	if cs.committed != 3 || cs.stopReason != StopCI {
		t.Fatalf("committed %d, stop reason %q", cs.committed, cs.stopReason)
	}
	// Speculative results beyond the stop point were stored but never
	// folded into the accumulators.
	if n := cs.acc[0].Summary().N; n != 3 {
		t.Fatalf("accumulator n = %d", n)
	}
}

func TestSequentialStoppingOrderIndependent(t *testing.T) {
	pdrs := []float64{0.80, 0.802, 0.801, 0.777, 0.9}
	inOrder := stoppingCampaign(t, 2, 5, 0.3)
	for rep, p := range pdrs {
		inOrder.CompleteUnit(0, rep, stats.Results{PDR: p}, false)
	}
	shuffled := stoppingCampaign(t, 2, 5, 0.3)
	for _, rep := range []int{4, 2, 0, 3, 1} {
		shuffled.CompleteUnit(0, rep, stats.Results{PDR: pdrs[rep]}, false)
	}
	a, b := &inOrder.cells[0], &shuffled.cells[0]
	if a.committed != b.committed || a.stopReason != b.stopReason {
		t.Fatalf("order changed the decision: %d/%s vs %d/%s",
			a.committed, a.stopReason, b.committed, b.stopReason)
	}
	if !reflect.DeepEqual(a.acc, b.acc) {
		t.Fatal("order changed the accumulators")
	}
}

func TestStoppingNeedsMinReps(t *testing.T) {
	// A single tight value would satisfy any epsilon, but MinReps floors
	// the sample size.
	c := stoppingCampaign(t, 3, 4, 1e9)
	c.CompleteUnit(0, 0, stats.Results{PDR: 0.5}, false)
	c.CompleteUnit(0, 1, stats.Results{PDR: 0.5}, false)
	if c.cells[0].stopReason != "" {
		t.Fatal("stopped before MinReps")
	}
	c.CompleteUnit(0, 2, stats.Results{PDR: 0.5}, false)
	cs := &c.cells[0]
	if cs.stopReason != StopCI || cs.committed != 3 {
		t.Fatalf("state = %+v", cs)
	}
}

// TestLateCancelKeepsCompleteResult: a cancellation that lands after the
// final commit (every cell stopped) must not discard the finished
// aggregate — with no journal it would be unrecoverable.
func TestLateCancelKeepsCompleteResult(t *testing.T) {
	spec := Spec{Scenario: tinyScenario(), Protocols: []string{core.DSR, core.Flood}, MaxReps: 2}
	want, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := New(spec, Options{
		Workers: 1,
		OnProgress: func(s Progress) {
			if s.RunsDone == s.MaxRuns {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("late cancel surfaced as %v", err)
	}
	if snap := c.Snapshot(); snap.State != StateDone {
		t.Fatalf("state = %s", snap.State)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("late-cancelled result diverges")
	}
}

func TestCampaignCancel(t *testing.T) {
	big := tinyScenario()
	big.Duration = 600 * sim.Second
	big.Nodes = 20
	spec := Spec{Scenario: big, Protocols: []string{core.DSR}, MaxReps: 3}
	c, err := New(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); !isCancel(err) {
		t.Fatalf("err = %v", err)
	}
	if snap := c.Snapshot(); snap.State != StateCancelled {
		t.Fatalf("state = %s", snap.State)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestPlanHashPinned pins the plan hash and a unit key of two fixed specs to
// their literal values: journals are matched by Plan.Hash and cached results
// by UnitKey, so a change to either strands everything already on disk. The
// second spec names a model of every kind in its base and sweeps two model
// axes, so the kind table cannot relabel, reorder or re-serialise a kind
// unnoticed.
func TestPlanHashPinned(t *testing.T) {
	var models Spec
	if err := json.Unmarshal([]byte(`{
	  "base": {"nodes": 12, "duration_s": 20,
	    "mobility": {"name": "gauss-markov", "params": {"alpha": 0.8}},
	    "traffic": {"name": "expoo", "params": {"on_s": 0.5, "off_s": 0.5}},
	    "radio": {"name": "shadowing", "params": {"sigma_db": 3}, "sinr": true},
	    "lifecycle": {"name": "onoff-fail", "params": {"mean_up_s": 60}}},
	  "protocols": ["DSR"],
	  "axes": [{"name": "radio", "models": ["tworay", "shadowing"]},
	           {"name": "lifecycle", "models": ["static", "onoff-fail"]}],
	  "max_reps": 2}`), &models); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec                     Spec
		cell                     int
		wantLabel, wantHash, key string
	}{
		{Spec{Protocols: []string{"DSR"}, MaxReps: 2}, 0, "DSR",
			"2ebfb3e0de4990cd26d7ea050c8bbe73494d2848f99e79eaa60c4cd7f8eb66ad",
			"05b7c7d5f03cada352ee69487000923102c590e4161ca928e3c856f4c77532b8"},
		{models, 3, "DSR|radio_model=shadowing|lifecycle_model=onoff-fail",
			"705771f7de99f97e3dab65b69a95e91e665f4000233eba07fb2c30b905848fb2",
			"61a4ac0cc6f1bc0df68e62ebd8359ddc5afb5cc53cf30c5e49b4583d772002d6"},
	} {
		plan, err := tc.spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Hash != tc.wantHash {
			t.Errorf("%s: Plan.Hash = %s, want %s", tc.wantLabel, plan.Hash, tc.wantHash)
		}
		if got := plan.Cells[tc.cell].Label; got != tc.wantLabel {
			t.Errorf("cell %d label = %q, want %q", tc.cell, got, tc.wantLabel)
		}
		if got := plan.UnitKey(tc.cell, 0); got != tc.key {
			t.Errorf("%s: UnitKey(%d,0) = %s, want %s", tc.wantLabel, tc.cell, got, tc.key)
		}
	}
}
