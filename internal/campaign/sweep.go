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
// Scenario, each catalogue axis an AxisSpec by name, opts.Seeds its
// BaseSeed and MaxReps, and each cell's result its CellResult.Merged.

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
	g := &core.GridResult{Protocols: append([]string(nil), opts.Protocols...), Cells: map[string][]stats.Results{}}
	spec := Spec{Protocols: opts.Protocols}
	resolved := make([]core.Axis, len(axes))
	for i := range axes {
		a, err := axes[i].Resolved(opts.Base)
		if err != nil {
			return nil, err
		}
		name, values, models := a.ByName()
		spec.Axes = append(spec.Axes, AxisSpec{Name: name, Values: values, Models: models})
		resolved[i], g.Labels = a, append(g.Labels, a.Label)
	}
	// A model axis's spec renumbers the models it visits, so the points and
	// their labels are the caller's axes', in the campaign's cell order.
	g.Points = core.CrossPoints(resolved)
	for _, pt := range g.Points {
		row := make([]string, len(pt))
		for a := range pt {
			row[a] = resolved[a].FormatValue(pt[a])
		}
		g.PointLabels = append(g.PointLabels, row)
	}
	n, axisLabel := len(g.Points), strings.Join(g.Labels, "×")
	var onProgress func(Progress)
	if opts.OnProgress != nil {
		onProgress = func(p Progress) {
			pi := p.Cell % n
			opts.OnProgress(core.Progress{Done: p.RunsDone, Total: p.MaxRuns, Protocol: opts.Protocols[p.Cell/n],
				Seed: opts.Seeds[p.Rep], Axis: axisLabel, X: g.Points[pi][0], Value: g.PointLabels[pi][0]})
		}
	}
	cells, err := runReplicated(ctx, spec, opts.Base, opts.Seeds, Options{Workers: opts.Workers, OnProgress: onProgress})
	if err != nil {
		return nil, err
	}
	for i, p := range opts.Protocols {
		for _, c := range cells[i*n : (i+1)*n] {
			g.Cells[p] = append(g.Cells[p], c.Merged)
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
	cells, err := runReplicated(ctx, Spec{Protocols: []string{rc.Protocol}}, rc.Spec, seeds, Options{Workers: workers})
	if err != nil {
		return stats.Results{}, err
	}
	return cells[0].Merged, nil
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

// runReplicated runs spec on the base scenario with one replication per
// seed and returns its cells. Replication r runs BaseSeed + r, so the seeds
// must be consecutive and ascending, and must not start at 0, which a Spec
// reads as its default base seed 1.
func runReplicated(ctx context.Context, spec Spec, base scenario.Spec, s []int64, opts Options) ([]CellResult, error) {
	for i := range s {
		if s[i] != s[0]+int64(i) || s[0] == 0 {
			return nil, fmt.Errorf("campaign: seeds %v are not consecutive and ascending from a non-zero seed: replication r runs seed %d + r", s, s[0])
		}
	}
	spec.Scenario, spec.BaseSeed, spec.MaxReps = &base, s[0], len(s)
	res, err := Run(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	return res.Cells, nil
}
