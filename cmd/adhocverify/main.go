// Command adhocverify replays the reproduction's acceptance criteria: it
// runs the reference configurations and checks every documented qualitative
// finding of the study (listed by core.Findings). Exit status 0 means all
// findings reproduced. Ctrl-C cancels the runs cleanly.
//
// Usage:
//
//	adhocverify                 # quick pass (120 s runs, 2 seeds)
//	adhocverify -dur 900 -seeds 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"adhocsim/internal/core"
	"adhocsim/internal/sim"
)

func main() {
	var (
		dur      = flag.Float64("dur", 120, "simulated seconds per run")
		seeds    = flag.Int("seeds", 2, "replication seeds")
		workers  = flag.Int("workers", 0, "parallel workers (0 = NumCPU)")
		progress = flag.Bool("progress", true, "report per-run progress on stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := core.DefaultOptions()
	opts.Base.Duration = sim.Seconds(*dur)
	opts.Workers = *workers
	opts.Seeds = opts.Seeds[:0]
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, int64(i+1))
	}
	if *progress {
		opts.OnProgress = core.ProgressPrinter(os.Stderr)
	}

	fmt.Printf("verifying %d findings (%d protocols, %.0f s runs, %d seeds)...\n\n",
		len(core.Findings()), len(opts.Protocols), *dur, *seeds)
	results, err := core.Verify(ctx, opts)
	if err != nil {
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintln(os.Stderr, "adhocverify:", err)
		os.Exit(1)
	}
	fmt.Print(core.RenderVerify(results))
	for _, r := range results {
		if !r.Pass {
			os.Exit(1)
		}
	}
}
