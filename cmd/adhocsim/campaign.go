package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"

	"adhocsim"
)

// campaignCmd executes a campaign spec end to end: progress on stderr, the
// aggregated Result as JSON on stdout. With -checkpoint, completed runs are
// journaled and an interrupted campaign (Ctrl-C included) resumes from the
// same file.
func campaignCmd(c *cli, args []string) int {
	checkpoint := c.String("checkpoint", "", "campaign journal path; an existing journal of the same spec is resumed")
	c.workersFlag()
	c.profileFlags()
	specPath := c.parse(args, 1)[0]

	var data []byte
	var err error
	if specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(specPath)
	}
	if err != nil {
		c.fatal(err)
	}
	var spec adhocsim.CampaignSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		c.fatal(fmt.Errorf("campaign spec: %w", err))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	res, err := adhocsim.RunCampaign(ctx, spec, adhocsim.CampaignOptions{
		Workers:     *c.workers,
		JournalPath: *checkpoint,
		OnProgress: func(s adhocsim.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d runs, %d/%d cells settled]   ",
				s.RunsDone, s.MaxRuns, s.CellsStopped, s.Cells)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		if *checkpoint != "" {
			err = fmt.Errorf("%w (rerun with -checkpoint %s to resume)", err, *checkpoint)
		}
		c.fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		c.fatal(err)
	}
	return 0
}
