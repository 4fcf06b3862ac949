package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"adhocsim/internal/core"
	"adhocsim/internal/sim"
)

// figsCmd regenerates every figure and table of the reproduced evaluation,
// printing text tables to stdout and writing CSV (and optionally JSON)
// files to -out. By default it runs a scaled configuration (150 s instead
// of 900 s, one seed); -full is the publication scale. -axis sweeps any
// catalogue axis instead — including dimensions the study never varied,
// such as transmission range. Ctrl-C cancels cleanly mid-sweep.
func figsCmd(c *cli, args []string) int {
	var (
		full     = c.Bool("full", false, "publication scale: 900 s runs (slow)")
		out      = c.String("out", "results", "CSV/JSON output directory")
		only     = c.String("only", "", "comma-separated subset: fig1..fig8,tab1,tab2,tab3")
		sources  = c.Int("sources", 10, "CBR sources for the pause sweep")
		asJSON   = c.Bool("json", false, "also write .json files for every figure and sweep")
		axisFlag = c.String("axis", "", "custom sweep instead of the study figures: name=v1,v2,... (names: "+strings.Join(core.AxisNames(), ", ")+"; empty value list selects axis defaults)")
	)
	c.durFlag(0, "simulated seconds per run (0: 150, or 900 with -full)")
	c.seedsFlag(1, "replication seeds per point")
	c.workersFlag()
	c.progressFlag()
	c.profileFlags()
	c.parse(args, 0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := core.DefaultOptions()
	opts.Workers = *c.workers
	opts.Base.Sources = *sources
	switch {
	case *c.dur > 0:
		opts.Base.Duration = sim.Seconds(*c.dur)
	case *full:
		opts.Base.Duration = 900 * sim.Second
	default:
		opts.Base.Duration = 150 * sim.Second
	}
	opts.Seeds = c.seedList(1)
	opts.OnProgress = c.progressFunc()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		c.fatal(err)
	}
	writeFile := func(name string, content []byte, err error) {
		if err != nil {
			c.fatal(err)
		}
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			c.fatal(err)
		}
		fmt.Printf("  wrote %s\n\n", path)
	}
	emit := func(f core.Figure) {
		fmt.Println(core.RenderFigure(f))
		writeFile(f.ID+".csv", []byte(core.RenderFigureCSV(f)), nil)
		if *asJSON {
			b, err := core.FigureJSON(f)
			writeFile(f.ID+".json", b, err)
		}
	}
	// runSweep runs one sweep, emits the selected figures of it and, with
	// -json and an id, the sweep itself.
	runSweep := func(what, id string, axis core.Axis, figs []core.Figure, sel func(string) bool) *core.SweepResult {
		fmt.Printf("running %s...\n", what)
		sweep, err := core.Sweep(ctx, opts, axis)
		if err != nil {
			c.fatal(err)
		}
		for _, f := range figs {
			if sel(f.ID) {
				f.Sweep = sweep
				emit(f)
			}
		}
		if *asJSON && id != "" {
			b, err := core.SweepJSON(sweep)
			writeFile(id+".json", b, err)
		}
		return sweep
	}

	// A custom axis sweep replaces the study figure set.
	if *axisFlag != "" {
		axis, err := parseAxis(*axisFlag)
		if err != nil {
			c.fatal(err)
		}
		fmt.Println(core.RenderParameters(opts))
		l := axis.Label
		runSweep(l+" sweep", l+"_sweep", axis, []core.Figure{
			{ID: l + "_pdr", Title: "PDR vs " + l, Metric: core.MetricPDR},
			{ID: l + "_delay", Title: "Delay vs " + l, Metric: core.MetricDelay},
			{ID: l + "_overhead", Title: "Routing overhead vs " + l, Metric: core.MetricOverhead},
			{ID: l + "_throughput", Title: "Throughput vs " + l, Metric: core.MetricThroughput},
		}, func(string) bool { return true })
		return 0
	}

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(f))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }
	anySel := func(ids ...string) bool {
		for _, id := range ids {
			if sel(id) {
				return true
			}
		}
		return false
	}

	fmt.Println(core.RenderParameters(opts))

	// Figures 1–4 share the pause sweep, and Figure 5 and Tables 1–2 view
	// its first point, pause 0; without figures 1–4 that point runs alone.
	var pause0 *core.SweepResult
	if anySel("fig1", "fig2", "fig3", "fig4") {
		pause0 = runSweep("pause-time sweep (figures 1-4)", "pause_sweep", core.PauseAxis(nil), core.Figures14(nil), sel)
	} else if anySel("fig5", "tab1", "tab2") {
		pause0 = runSweep("pause-0 point (figure 5, tables 1-2)", "", core.PauseAxis([]float64{0}), nil, sel)
	}

	if sel("fig5") {
		fmt.Println(core.RenderPathOptimality(core.PathOptimality(pause0), opts.Protocols))
	}
	if sel("fig6") {
		runSweep("density sweep (figure 6)", "density_sweep", core.NodesAxis(nil), []core.Figure{
			{ID: "fig6a", Title: "PDR vs node count", Metric: core.MetricPDR},
			{ID: "fig6b", Title: "Delay vs node count", Metric: core.MetricDelay},
			{ID: "fig6c", Title: "Routing overhead vs node count", Metric: core.MetricOverhead},
		}, sel)
	}
	if sel("fig7") {
		runSweep("offered-load sweep (figure 7)", "load_sweep", core.RateAxis(nil), []core.Figure{
			{ID: "fig7a", Title: "Delay vs offered load", Metric: core.MetricDelay},
			{ID: "fig7b", Title: "Throughput vs offered load", Metric: core.MetricThroughput},
		}, sel)
	}
	if sel("fig8") {
		runSweep("speed sweep (figure 8)", "speed_sweep", core.SpeedAxis(nil), []core.Figure{
			{ID: "fig8a", Title: "PDR vs max speed", Metric: core.MetricPDR},
			{ID: "fig8b", Title: "Routing overhead vs max speed", Metric: core.MetricOverhead},
		}, sel)
	}

	if anySel("tab1", "tab2") {
		sum := core.SummaryTable(pause0)
		if sel("tab1") {
			fmt.Println(core.RenderSummaryTable(sum, opts.Protocols))
		}
		if sel("tab2") {
			fmt.Println(core.RenderOverheadBreakdown(sum, opts.Protocols))
		}
		if *asJSON {
			for _, p := range opts.Protocols {
				b, err := core.ResultsJSON(sum[p])
				writeFile("summary_"+strings.ToLower(p)+".json", b, err)
			}
		}
	}
	return 0
}

// parseAxis parses "-axis name=v1,v2,...": numbers for a numeric axis,
// model names for a model axis ("mobility=waypoint,manhattan"); an empty or
// omitted list selects the axis defaults.
func parseAxis(s string) (core.Axis, error) {
	name, list, _ := strings.Cut(s, "=")
	var values []float64
	var models []string
	if strings.TrimSpace(list) != "" {
		for _, field := range strings.Split(list, ",") {
			field = strings.TrimSpace(field)
			if v, err := strconv.ParseFloat(field, 64); err == nil {
				values = append(values, v)
			} else {
				models = append(models, field)
			}
		}
	}
	axis, err := core.AxisByName(name, values, models)
	if err == nil && axis.Format != nil && values != nil {
		err = fmt.Errorf("axis %q takes model names, not numbers", name)
	}
	return axis, err
}
