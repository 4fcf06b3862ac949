// Model-matrix example: a tiny campaign crossing the protocols with one
// axis per scenario-model kind — mobility × traffic × radio × lifecycle —
// decoded under cumulative-interference SINR reception. The study evaluated
// its protocols under exactly one workload shape (random-waypoint mobility
// driving CBR sources over two-ray ground with pairwise capture, nobody
// ever leaving) although protocol rankings are known to be sensitive to
// every one of those choices; the model registries make each sweep a
// one-line axis declaration.
//
//	go run ./examples/model_matrix
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"adhocsim"
)

func main() {
	spec := adhocsim.CampaignSpec{
		Name: "model-matrix",
		Base: adhocsim.CampaignScenarioPatch{
			Nodes:     intp(12),
			AreaW:     f64p(700),
			DurationS: f64p(20),
			Sources:   intp(3),
			// SINR reception for every cell: the radio axis sweeps the
			// propagation model, the patch pins the reception model.
			Radio: &adhocsim.RadioSpec{SINR: true},
		},
		Protocols: []string{adhocsim.DSR, adhocsim.AODV},
		Axes: []adhocsim.CampaignAxis{
			{Name: "mobility", Models: []string{"waypoint", "gauss-markov", "manhattan"}},
			{Name: "traffic", Models: []string{"cbr", "expoo"}},
			{Name: "radio", Models: []string{"tworay", "shadowing"}},
			{Name: "lifecycle", Models: []string{"static", "onoff-fail"}},
		},
		MaxReps: 1,
	}

	res, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{
		OnProgress: func(s adhocsim.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d runs]   ", s.RunsDone, s.MaxRuns)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("2 protocols × 3 mobility × 2 traffic × 2 radio × 2 lifecycle models (12 nodes, 20 s):")
	fmt.Printf("%-100s %8s %10s %8s\n", "cell", "PDR", "delay", "sent")
	distinct := make(map[string]bool)
	for _, cell := range res.Cells {
		pdr := cell.Metrics["pdr"]
		delay := cell.Metrics["delay"]
		fmt.Printf("%-100s %7.1f%% %8.1fms %8d\n",
			cell.Label, pdr.Mean, delay.Mean, cell.Merged.DataSent)
		if cell.Merged.DataSent == 0 {
			log.Fatalf("degenerate cell %q: no traffic", cell.Label)
		}
		distinct[fmt.Sprintf("%s|%.6f|%d", cell.Protocol, pdr.Mean, cell.Merged.DataSent)] = true
	}
	if want := 2 * 3 * 2 * 2 * 2; len(res.Cells) != want {
		log.Fatalf("expected %d cells, got %d", want, len(res.Cells))
	}
	// The matrix must actually vary the workload: if every model produced
	// the same metrics the registries would be decorative.
	if len(distinct) < len(res.Cells)/2 {
		log.Fatalf("model cells suspiciously identical (%d distinct of %d)", len(distinct), len(res.Cells))
	}
	fmt.Println("\nmodel matrix OK")
}

func intp(v int) *int         { return &v }
func f64p(v float64) *float64 { return &v }
