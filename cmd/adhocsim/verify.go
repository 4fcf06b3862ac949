package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"adhocsim/internal/core"
	"adhocsim/internal/sim"
)

// verifyCmd replays the reproduction's acceptance criteria: it runs the
// reference configurations and checks every documented qualitative finding
// of the study (core.Findings). Exit status 0 means all findings
// reproduced. Ctrl-C cancels the runs cleanly.
func verifyCmd(c *cli, args []string) int {
	c.durFlag(120, "simulated seconds per run")
	c.seedsFlag(2, "replication seeds")
	c.workersFlag()
	c.progressFlag()
	c.profileFlags()
	c.parse(args, 0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := core.DefaultOptions()
	opts.Base.Duration = sim.Seconds(*c.dur)
	opts.Workers = *c.workers
	opts.Seeds = c.seedList(1)
	opts.OnProgress = c.progressFunc()

	fmt.Printf("verifying %d findings (%d protocols, %.0f s runs, %d seeds)...\n\n",
		len(core.Findings()), len(opts.Protocols), *c.dur, *c.seeds)
	results, err := core.Verify(ctx, opts)
	if err != nil {
		c.fatal(err)
	}
	fmt.Print(core.RenderVerify(results))
	for _, r := range results {
		if !r.Pass {
			return 1
		}
	}
	return 0
}
