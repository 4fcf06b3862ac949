package campaign

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"adhocsim/internal/core"
	"adhocsim/internal/scenario"
	"adhocsim/internal/stats"
)

// The experiment API's replicated runs — sweeps, grids, replicated single
// runs and the findings check — run as campaigns: opts.Base is the Spec's
// Scenario, the axes its Axes, opts.Seeds its BaseSeed and MaxReps, and
// each cell's result its CellResult.Merged. What a grid reports of its axes
// — labels, points and their rendered values — is read off the expanded
// Plan.

// Sweep evaluates every protocol in opts at every value of the axis,
// merging replication seeds per point. It is the one-axis case of Grid.
func Sweep(ctx context.Context, opts core.Options, axis core.Axis) (*core.SweepResult, error) {
	g, err := Grid(ctx, opts, axis)
	if err != nil {
		return nil, err
	}
	sr := &core.SweepResult{XLabel: g.Labels[0], Protocols: g.Protocols, Cells: g.Cells}
	for i, pt := range g.Points {
		sr.Xs = append(sr.Xs, pt[0])
		sr.XTicks = append(sr.XTicks, g.PointLabels[i][0])
	}
	return sr, nil
}

// Grid evaluates every protocol in opts at every combination of the axes'
// values (full cross product), merging replication seeds per point.
func Grid(ctx context.Context, opts core.Options, axes ...core.Axis) (*core.GridResult, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("campaign: Grid needs at least one axis")
	}
	if len(opts.Protocols) == 0 {
		opts.Protocols = core.StudyProtocols()
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1}
	}
	// The plan is read once New has expanded it, before any unit lands.
	var (
		plan      *Plan
		n         int
		axisLabel string
	)
	var onProgress func(Progress)
	if opts.OnProgress != nil {
		onProgress = func(p Progress) {
			pi := p.Cell % n
			opts.OnProgress(core.Progress{Done: p.RunsDone, Total: p.MaxRuns, Protocol: opts.Protocols[p.Cell/n],
				Seed: opts.Seeds[p.Rep], Axis: axisLabel, X: plan.Points[pi][0], Value: plan.ticks[pi][0]})
		}
	}
	c, err := replicated(Spec{Protocols: opts.Protocols, Axes: axes}, opts.Base, opts.Seeds, Options{Workers: opts.Workers, OnProgress: onProgress})
	if err != nil {
		return nil, err
	}
	plan = c.Plan()
	n, axisLabel = len(plan.Points), strings.Join(plan.Labels, "×")
	res, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	g := &core.GridResult{Labels: plan.Labels, Points: plan.Points, PointLabels: plan.ticks,
		Protocols: append([]string(nil), opts.Protocols...), Cells: map[string][]stats.Results{}}
	for i, p := range opts.Protocols {
		for _, cell := range res.Cells[i*n : (i+1)*n] {
			g.Cells[p] = append(g.Cells[p], cell.Merged)
		}
	}
	return g, nil
}

// RunReplicatedContext executes the run for each seed on the campaign pool
// and merges the results in seed order. A single seed is a plain Run; more
// read only rc's Spec and Protocol, so they refuse its other settings.
func RunReplicatedContext(ctx context.Context, rc core.RunConfig, seeds []int64, workers int) (stats.Results, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if len(seeds) == 1 {
		rc.Seed = seeds[0]
		return core.Run(ctx, rc)
	}
	rest := rc
	rest.Spec, rest.Protocol, rest.Seed = scenario.Spec{}, "", 0
	if !reflect.ValueOf(rest).IsZero() {
		return stats.Results{}, fmt.Errorf("campaign: Mac, Phy, Tweaks, Tracer and Sinks need a single seed")
	}
	c, err := replicated(Spec{Protocols: []string{rc.Protocol}}, rc.Spec, seeds, Options{Workers: workers})
	if err != nil {
		return stats.Results{}, err
	}
	res, err := c.Run(ctx)
	if err != nil {
		return stats.Results{}, err
	}
	return res.Cells[0].Merged, nil
}

// Verify runs the findings' two reference configurations, pause 0 and a
// pause as long as the run, and evaluates every finding.
func Verify(ctx context.Context, opts core.Options) ([]core.VerifyResult, error) {
	sweep, err := Sweep(ctx, opts, core.PauseAxis([]float64{0, opts.Base.Duration.Seconds()}))
	if err != nil {
		return nil, err
	}
	return core.CheckFindings(sweep), nil
}

// replicated builds the campaign of spec on the base scenario with one
// replication per seed. Replication r runs BaseSeed + r, so the seeds must
// be consecutive and ascending, and must not start at 0, which a Spec reads
// as its default base seed 1.
func replicated(spec Spec, base scenario.Spec, s []int64, opts Options) (*Campaign, error) {
	const rule = "replication r runs seed BaseSeed + r"
	if s[0] == 0 {
		return nil, fmt.Errorf("campaign: seeds %v: the first seed must be non-zero, as 0 selects the default base seed: %s", s, rule)
	}
	for i := range s {
		if s[i] != s[0]+int64(i) {
			return nil, fmt.Errorf("campaign: seeds %v are not consecutive and ascending: %s", s, rule)
		}
	}
	spec.Scenario, spec.BaseSeed, spec.MaxReps = &base, s[0], len(s)
	return New(spec, opts)
}
