package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/core"
	"adhocsim/internal/metrics"
	"adhocsim/internal/scenario"
	"adhocsim/internal/stats"
)

// TestUnitKeyMatchesMarshalledPayload: UnitKey, which appends the seed to a
// per-cell prefix, is the digest of json.Marshal's encoding of the whole
// payload for every cell and replication of a plan with two protocols, a
// numeric axis, a model axis and a model of every kind in its base.
func TestUnitKeyMatchesMarshalledPayload(t *testing.T) {
	var spec Spec
	if err := json.Unmarshal([]byte(`{
	  "base": {"nodes": 12, "duration_s": 20,
	    "mobility": {"name": "gauss-markov", "params": {"alpha": 0.8}},
	    "traffic": {"name": "expoo", "params": {"on_s": 0.5, "off_s": 0.5}},
	    "radio": {"name": "shadowing", "params": {"sigma_db": 3}, "sinr": true},
	    "lifecycle": {"name": "onoff-fail", "params": {"mean_up_s": 60}}},
	  "protocols": ["DSR", "AODV"],
	  "axes": [{"name": "pause", "values": [0, 7.5]},
	           {"name": "mobility", "models": ["waypoint", "manhattan"]}],
	  "base_seed": -3,
	  "max_reps": 4}`), &spec); err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(plan.Cells))
	}
	for ci, cell := range plan.Cells {
		for rep := 0; rep < plan.Spec.MaxReps; rep++ {
			b, err := json.Marshal(struct {
				Scenario scenario.Spec
				Protocol string
				Seed     int64
				Format   int
			}{cell.spec, cell.Protocol, plan.SeedFor(ci, rep), 2})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got, want := plan.UnitKey(ci, rep), hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("%s rep %d: UnitKey = %s, want %s", cell.Label, rep, got, want)
			}
		}
	}
}

// foldInOrder is the stream fold as each commit made it before the fold
// moved to settle: replication by replication, from the executed units.
func foldInOrder(t *testing.T, plan *Plan, ci, reps int) (map[string]metrics.QuantileSummary, *metrics.SeriesState) {
	t.Helper()
	sketches := map[string]*metrics.Sketch{}
	var series *metrics.SeriesState
	for rep := 0; rep < reps; rep++ {
		res, err := plan.ExecuteUnit(context.Background(), ci, rep)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range res.Streams.Sketches {
			if sk := sketches[name]; sk != nil {
				sk.MergeState(st)
			} else {
				sketches[name] = metrics.FromState(st)
			}
		}
		if series == nil {
			series = res.Streams.Series.Clone()
		} else if err := series.Merge(res.Streams.Series); err != nil {
			t.Fatal(err)
		}
	}
	quantiles := make(map[string]metrics.QuantileSummary, len(sketches))
	for name, sk := range sketches {
		quantiles[name] = sk.Summary()
	}
	return quantiles, series
}

// TestParallelSettleMatchesSequentialFold: a campaign with more cells than
// GOMAXPROCS folds its cells on several goroutines at settle. Its Result
// equals the same campaign's under GOMAXPROCS 1, where one goroutine folds
// every cell, and each cell's percentiles and series equal an in-order fold
// of its executed units. Every goroutine the campaign started has ended
// once Run (Start, the pool, Finish) has returned.
func TestParallelSettleMatchesSequentialFold(t *testing.T) {
	spec := Spec{
		Scenario:  tinyScenario(),
		Protocols: []string{core.DSR, core.AODV},
		Axes:      []AxisSpec{{Name: "pause", Values: []float64{0, 2, 5, 10}}},
		MaxReps:   2,
	}
	run := func(procs int) *Result {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		baseline := runtime.NumGoroutine()
		res, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A goroutine past wg.Done may not have exited yet.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d: %d goroutines after Run, %d before", procs, runtime.NumGoroutine(), baseline)
			}
		}
		return res
	}
	parallel := run(3)
	if len(parallel.Cells) <= 3 {
		t.Fatalf("%d cells: not more than GOMAXPROCS", len(parallel.Cells))
	}
	if sequential := run(1); !reflect.DeepEqual(parallel, sequential) {
		t.Fatal("Result folded on 3 goroutines differs from the one folded on 1")
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for ci, cell := range parallel.Cells {
		quantiles, series := foldInOrder(t, plan, ci, cell.Reps)
		if !reflect.DeepEqual(cell.Quantiles, quantiles) || !reflect.DeepEqual(cell.Series, series) {
			t.Fatalf("%s: settle's fold differs from an in-order fold of its units", cell.Label)
		}
	}
}

// TestSettleFailsOnSeriesOfAnotherGeometry: a Go caller's CompleteUnit does
// not check stream digests, so the fold at settle is the backstop. A series
// one bucket short fails the campaign with an error naming the cell and the
// kind.
func TestSettleFailsOnSeriesOfAnotherGeometry(t *testing.T) {
	c, err := New(Spec{Scenario: tinyScenario(), Protocols: []string{core.DSR}, MaxReps: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var reps [2]stats.Results
	for rep := range reps {
		if reps[rep], err = c.Plan().ExecuteUnit(context.Background(), 0, rep); err != nil {
			t.Fatal(err)
		}
	}
	series := reps[1].Streams.Series.Clone()
	series.Counts["delay"] = series.Counts["delay"][1:]
	reps[1].Streams = &metrics.RunStreams{Sketches: reps[1].Streams.Sketches, Series: series}
	c.CompleteUnit(0, 0, reps[0], false)
	c.CompleteUnit(0, 1, reps[1], false)
	if _, err := c.Finish(context.Background()); err == nil || !strings.Contains(err.Error(), `"DSR"`) ||
		!strings.Contains(err.Error(), `geometry mismatch for "delay"`) {
		t.Fatalf("Finish = %v, want a geometry error naming the cell and the kind", err)
	}
	if st := c.Snapshot().State; st != StateFailed {
		t.Fatalf("state %s, want %s", st, StateFailed)
	}
}
