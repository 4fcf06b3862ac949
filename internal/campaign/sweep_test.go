package campaign

import (
	"context"
	"math"
	"strings"
	"testing"

	"adhocsim/internal/core"
	"adhocsim/internal/mac"
)

// TestSweepInputRefusals: every input the seed rule (replication r runs
// BaseSeed + r) or the named axes cannot run is refused before any run,
// with an error that says why.
func TestSweepInputRefusals(t *testing.T) {
	ctx := context.Background()
	opts := core.DefaultOptions()
	opts.Base = *tinyScenario()
	opts.Protocols = []string{core.DSR}
	sweep := func(axis core.Axis, seeds ...int64) func() error {
		return func() error {
			o := opts
			o.Seeds = seeds
			_, err := Sweep(ctx, o, axis)
			return err
		}
	}
	grid := func(seeds ...int64) func() error {
		return func() error {
			o := opts
			o.Seeds = seeds
			_, err := Grid(ctx, o, core.PauseAxis([]float64{0}), core.RateAxis([]float64{4}))
			return err
		}
	}
	replicated := func(rc core.RunConfig, seeds ...int64) func() error {
		return func() error {
			rc.Spec, rc.Protocol = opts.Base, core.DSR
			_, err := RunReplicatedContext(ctx, rc, seeds, 1)
			return err
		}
	}
	expand := func(base int64, reps int) func() error {
		return func() error {
			_, err := Spec{Protocols: []string{core.DSR}, BaseSeed: base, MaxReps: reps}.Expand()
			return err
		}
	}
	pause := core.PauseAxis([]float64{0})
	const rule = "replication r runs seed"
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"base_seed whose last replication overflows", expand(math.MaxInt64-1, 3), "overflows"},
		{"sweep seeds with a gap", sweep(pause, 1, 3), rule},
		{"sweep seeds from 0", sweep(pause, 0, 1), rule},
		{"sweep seeds wrapping past MaxInt64", sweep(pause, math.MaxInt64, math.MinInt64), "overflows"},
		{"grid seeds descending", grid(2, 1), rule},
		{"replicated seeds repeated", replicated(core.RunConfig{}, 4, 4), rule},
		{"replicated run with a MAC config", replicated(core.RunConfig{Mac: mac.Config{RTSThreshold: 3000}}, 1, 2), "single seed"},
		{"axis the catalogue does not name", sweep(core.Axis{Name: "custom", Values: []float64{1}}, 1), "unknown axis"},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it refused (%q)", tc.name, err, tc.want)
		}
	}
	// The last seed that fits still expands.
	if err := expand(math.MaxInt64-2, 3)(); err != nil {
		t.Errorf("base_seed MaxInt64-2 with 3 replications: %v", err)
	}
}
