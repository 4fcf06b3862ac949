// Command adhocfigs regenerates every figure and table of the reproduced
// evaluation, printing text tables to stdout and writing CSV (and
// optionally JSON) files to an output directory.
//
// By default it runs a scaled configuration (150 s instead of 900 s, one
// seed) that finishes in minutes on a laptop; pass -full for the
// publication-scale run. Ctrl-C cancels cleanly mid-sweep.
//
// Beyond the published figures, -axis sweeps any catalogue axis — including
// dimensions the study never varied, such as transmission range:
//
//	adhocfigs                          # scaled run, all figures
//	adhocfigs -full -seeds 5           # full-length run
//	adhocfigs -only fig1,tab1          # subset
//	adhocfigs -axis txrange=100,150,200,250 -json
//	adhocfigs -axis mobility=waypoint,manhattan
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"adhocsim/internal/core"
	"adhocsim/internal/sim"
)

func main() {
	var (
		full     = flag.Bool("full", false, "publication scale: 900 s runs (slow)")
		dur      = flag.Float64("dur", 0, "override duration (s)")
		seeds    = flag.Int("seeds", 1, "replication seeds per point")
		out      = flag.String("out", "results", "CSV/JSON output directory")
		only     = flag.String("only", "", "comma-separated subset: fig1..fig8,tab1,tab2,tab3")
		sources  = flag.Int("sources", 10, "CBR sources for the pause sweep")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = NumCPU)")
		asJSON   = flag.Bool("json", false, "also write .json files for every figure and sweep")
		progress = flag.Bool("progress", true, "report per-run progress on stderr")
		axisFlag = flag.String("axis", "", "custom sweep instead of the study figures: name=v1,v2,... (names: "+strings.Join(core.AxisNames(), ", ")+"; empty value list selects axis defaults)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := core.DefaultOptions()
	opts.Workers = *workers
	opts.Base.Sources = *sources
	switch {
	case *dur > 0:
		opts.Base.Duration = sim.Seconds(*dur)
	case *full:
		opts.Base.Duration = 900 * sim.Second
	default:
		opts.Base.Duration = 150 * sim.Second
	}
	opts.Seeds = opts.Seeds[:0]
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, int64(i+1))
	}
	if *progress {
		opts.OnProgress = core.ProgressPrinter(os.Stderr)
		progressActive = true
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	emit := func(id string, f core.Figure) {
		fmt.Println(core.RenderFigure(f))
		writeFile(*out, id+".csv", []byte(core.RenderFigureCSV(f)))
		if *asJSON {
			b, err := core.FigureJSON(f)
			if err != nil {
				fatal(err)
			}
			writeFile(*out, id+".json", b)
		}
	}
	emitSweep := func(id string, sweep *core.SweepResult) {
		if !*asJSON {
			return
		}
		b, err := core.SweepJSON(sweep)
		if err != nil {
			fatal(err)
		}
		writeFile(*out, id+".json", b)
	}

	// A custom axis sweep replaces the study figure set.
	if *axisFlag != "" {
		axis, err := parseAxis(*axisFlag)
		if err != nil {
			fatal(err)
		}
		fmt.Println(core.RenderParameters(opts))
		fmt.Printf("running %s sweep...\n", axis.Label)
		sweep, err := core.Sweep(ctx, opts, axis)
		if err != nil {
			fatal(err)
		}
		for _, f := range []core.Figure{
			{ID: axis.Label + "_pdr", Title: "PDR vs " + axis.Label, Metric: core.MetricPDR, Sweep: sweep},
			{ID: axis.Label + "_delay", Title: "Delay vs " + axis.Label, Metric: core.MetricDelay, Sweep: sweep},
			{ID: axis.Label + "_overhead", Title: "Routing overhead vs " + axis.Label, Metric: core.MetricOverhead, Sweep: sweep},
			{ID: axis.Label + "_throughput", Title: "Throughput vs " + axis.Label, Metric: core.MetricThroughput, Sweep: sweep},
		} {
			emit(f.ID, f)
		}
		emitSweep(axis.Label+"_sweep", sweep)
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(f))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Println(core.RenderParameters(opts))

	// Figures 1–4 share the pause sweep.
	if sel("fig1") || sel("fig2") || sel("fig3") || sel("fig4") {
		fmt.Println("running pause-time sweep (figures 1-4)...")
		sweep, err := core.PauseSweep(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		for _, f := range core.Figures14(sweep) {
			if !sel(f.ID) {
				continue
			}
			emit(f.ID, f)
		}
		emitSweep("pause_sweep", sweep)
	}

	if sel("fig5") {
		fmt.Println("running path-optimality experiment (figure 5)...")
		hist, err := core.PathOptimality(ctx, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(core.RenderPathOptimality(hist, opts.Protocols))
	}

	if sel("fig6") {
		fmt.Println("running density sweep (figure 6)...")
		sweep, err := core.DensitySweep(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		for _, f := range []core.Figure{
			{ID: "fig6a", Title: "PDR vs node count", Metric: core.MetricPDR, Sweep: sweep},
			{ID: "fig6b", Title: "Delay vs node count", Metric: core.MetricDelay, Sweep: sweep},
			{ID: "fig6c", Title: "Routing overhead vs node count", Metric: core.MetricOverhead, Sweep: sweep},
		} {
			emit(f.ID, f)
		}
		emitSweep("density_sweep", sweep)
	}

	if sel("fig7") {
		fmt.Println("running offered-load sweep (figure 7)...")
		sweep, err := core.LoadSweep(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		for _, f := range []core.Figure{
			{ID: "fig7a", Title: "Delay vs offered load", Metric: core.MetricDelay, Sweep: sweep},
			{ID: "fig7b", Title: "Throughput vs offered load", Metric: core.MetricThroughput, Sweep: sweep},
		} {
			emit(f.ID, f)
		}
		emitSweep("load_sweep", sweep)
	}

	if sel("fig8") {
		fmt.Println("running speed sweep (figure 8)...")
		sweep, err := core.SpeedSweep(ctx, opts, nil)
		if err != nil {
			fatal(err)
		}
		for _, f := range []core.Figure{
			{ID: "fig8a", Title: "PDR vs max speed", Metric: core.MetricPDR, Sweep: sweep},
			{ID: "fig8b", Title: "Routing overhead vs max speed", Metric: core.MetricOverhead, Sweep: sweep},
		} {
			emit(f.ID, f)
		}
		emitSweep("speed_sweep", sweep)
	}

	if sel("tab1") || sel("tab2") {
		fmt.Println("running summary configuration (tables 1-2)...")
		sum, err := core.SummaryTable(ctx, opts)
		if err != nil {
			fatal(err)
		}
		if sel("tab1") {
			fmt.Println(core.RenderSummaryTable(sum, opts.Protocols))
		}
		if sel("tab2") {
			fmt.Println(core.RenderOverheadBreakdown(sum, opts.Protocols))
		}
		if *asJSON {
			for _, p := range opts.Protocols {
				b, err := core.ResultsJSON(sum[p])
				if err != nil {
					fatal(err)
				}
				writeFile(*out, "summary_"+strings.ToLower(p)+".json", b)
			}
		}
	}
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

func writeFile(dir, name string, content []byte) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n\n", path)
}

// progressActive makes fatal terminate a partially-drawn progress line
// before the error (e.g. on mid-sweep cancellation).
var progressActive bool

func fatal(err error) {
	if progressActive {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, "adhocfigs:", err)
	os.Exit(1)
}
