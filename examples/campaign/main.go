// Example campaign: replicate a two-protocol pause-time comparison until the
// packet-delivery estimate is trustworthy.
//
// Each (protocol, pause) cell replicates with deterministically derived
// seeds until the 95% confidence half-width of PDR drops to 5 percentage
// points — or the replication cap is hit. The run is checkpointed: kill it
// mid-flight and run it again, and it resumes from the journal with
// bit-identical results.
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"adhocsim"
)

func main() {
	sc := adhocsim.DefaultSpec()
	sc.Nodes = 15
	sc.Area = adhocsim.Rect{W: 800, H: 300}
	sc.Duration = adhocsim.Seconds(60)
	sc.Sources = 5

	spec := adhocsim.CampaignSpec{
		Name:      "pause-replication",
		Scenario:  &sc,
		Protocols: []string{adhocsim.DSR, adhocsim.AODV},
		Axes: []adhocsim.CampaignAxis{
			{Name: "pause", Values: []float64{0, 60}},
		},
		MinReps: 2,
		MaxReps: 6,
		// Stop a cell early once PDR is known to ±5 percentage points.
		Epsilon: map[string]float64{"pdr": 5},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := adhocsim.RunCampaign(ctx, spec, adhocsim.CampaignOptions{
		JournalPath: "campaign.jsonl",
		OnProgress: func(s adhocsim.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d runs, %d/%d cells settled]   ",
				s.RunsDone, s.MaxRuns, s.CellsStopped, s.Cells)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		fmt.Fprintln(os.Stderr, "rerun to resume from campaign.jsonl")
		os.Exit(1)
	}

	fmt.Printf("%-8s %-10s %4s %-9s %16s %18s\n",
		"proto", "pause_s", "n", "stop", "pdr_%", "delay_ms")
	for _, cell := range res.Cells {
		pdr, delay := cell.Metrics["pdr"], cell.Metrics["delay"]
		fmt.Printf("%-8s %-10g %4d %-9s %8.1f ±%5.1f %9.2f ±%6.2f\n",
			cell.Protocol, cell.Point[0], cell.Reps, cell.StopReason,
			pdr.Mean, pdr.CI95, delay.Mean, delay.CI95)
	}
	_ = os.Remove("campaign.jsonl") // completed: the checkpoint is spent
}
