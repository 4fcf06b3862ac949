package adhocsim_test

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"adhocsim"
)

// allSinks attaches one of every production sink plus a capture, returning
// the capture for stream inspection.
func allSinks(spec adhocsim.Spec) (*captureSink, []adhocsim.MetricSink) {
	cap := &captureSink{}
	return cap, []adhocsim.MetricSink{
		adhocsim.NewSketchSink(100, adhocsim.MetricDelaySec, adhocsim.MetricHops),
		adhocsim.NewWindowSink(spec.Duration, 60),
		adhocsim.NewWelfordSink(),
		adhocsim.NewJSONLSink(io.Discard),
		cap,
	}
}

// captureSink records every sample (test-only; unbounded).
type captureSink struct{ samples []adhocsim.MetricSample }

func (c *captureSink) Record(s adhocsim.MetricSample) { c.samples = append(c.samples, s) }

// TestGoldenParityWithSinksAttached: attaching the full sink set must leave
// the golden DSR seed-1 run bit-identical — the sample stream is a read-only
// tap on the stats path, not a second accounting.
func TestGoldenParityWithSinksAttached(t *testing.T) {
	if testing.Short() {
		t.Skip("150 s study run")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 150 * adhocsim.Second
	want := seedGolden["DSR"]

	sketches := adhocsim.NewSketchSink(100, adhocsim.MetricDelaySec, adhocsim.MetricHops)
	welford := adhocsim.NewWelfordSink()
	cap, sinks := allSinks(spec)
	sinks[0] = sketches
	sinks[2] = welford
	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1, Sinks: sinks})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent != want.dataSent || res.DataDelivered != want.dataDelivered ||
		res.RoutingTxPackets != want.routingTxPackets || res.MacCtlFrames != want.macCtlFrames {
		t.Errorf("counters diverged with sinks attached: %+v", res)
	}
	if res.PDR != want.pdr || res.AvgDelay != want.avgDelay || res.AvgHops != want.avgHops {
		t.Errorf("rates diverged with sinks attached: pdr %v delay %v hops %v", res.PDR, res.AvgDelay, res.AvgHops)
	}
	// And a sinkless rerun is DeepEqual to the sinked one (both Streams nil:
	// sinks are caller-owned; Run does not attach digests to Results).
	plain, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Error("results with and without sinks are not DeepEqual")
	}

	// The stream agrees with the aggregate accounting.
	var delivered uint64
	for _, s := range cap.samples {
		if s.Kind == adhocsim.MetricDelivered {
			delivered++
		}
	}
	if delivered != res.DataDelivered {
		t.Errorf("stream delivered %d samples, results say %d", delivered, res.DataDelivered)
	}
	delay := sketches.Sketch(adhocsim.MetricDelaySec)
	if delay.Count() != float64(res.DataDelivered) {
		t.Errorf("delay sketch count %v, want %d", delay.Count(), res.DataDelivered)
	}
	// Sketch and Welford views of the same stream agree with the exact stats
	// (sketch within rank tolerance, Welford mean within float noise).
	if p50 := delay.Quantile(0.5); math.Abs(p50-res.P50Delay) > res.P95Delay*0.05+1e-9 {
		t.Errorf("sketch p50 %v far from exact %v", p50, res.P50Delay)
	}
	if m := welford.Cell(adhocsim.MetricDelaySec).Mean(); math.Abs(m-res.AvgDelay) > 1e-12 {
		t.Errorf("welford delay mean %v, exact %v", m, res.AvgDelay)
	}
}

// TestMetricStreamReplayParity: the sample stream is part of the determinism
// contract — the spatial-grid and brute-force transmit paths must emit the
// identical stream, sample for sample.
func TestMetricStreamReplayParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 60 * adhocsim.Second
	run := func(phy adhocsim.PhyConfig) []adhocsim.MetricSample {
		cap := &captureSink{}
		_, err := adhocsim.Run(adhocsim.RunConfig{
			Spec: spec, Protocol: adhocsim.DSR, Seed: 1, Phy: phy,
			Sinks: []adhocsim.MetricSink{cap},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cap.samples
	}
	grid := run(adhocsim.PhyConfig{})
	if len(grid) == 0 {
		t.Fatal("no samples emitted")
	}
	if brute := run(adhocsim.PhyConfig{BruteForce: true}); !reflect.DeepEqual(grid, brute) {
		t.Error("grid and brute-force paths emit different sample streams")
	}
}

// TestCampaignResumeSketchParity: a campaign resumed entirely from its
// journal reproduces percentiles and time series bit-identically — the
// serialized sketch states in the journal are the full aggregation input.
func TestCampaignResumeSketchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("small campaign, two executions")
	}
	nodes, sources, dur := 15, 3, 20.0
	spec := adhocsim.CampaignSpec{
		Name: "resume-sketch",
		Base: adhocsim.CampaignScenarioPatch{
			Nodes: &nodes, Sources: &sources, DurationS: &dur,
		},
		Protocols: []string{adhocsim.DSR},
		MaxReps:   2,
	}
	journal := filepath.Join(t.TempDir(), "ckpt.jsonl")
	first, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	// Second execution resumes every run from the journal: no simulation
	// executes, yet the result — quantiles and series included — matches
	// bit for bit.
	resumed, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, resumed) {
		t.Fatalf("journal-resumed result diverges:\nfirst   %+v\nresumed %+v", first, resumed)
	}
	cell := first.Cells[0]
	q, ok := cell.Quantiles["delay"]
	if !ok || q.Count == 0 {
		t.Fatalf("campaign cell carries no delay quantiles: %+v", cell.Quantiles)
	}
	if q.Count != float64(cell.Merged.DataDelivered) {
		t.Errorf("delay quantile count %v, want %d delivered", q.Count, cell.Merged.DataDelivered)
	}
	if cell.Series == nil || len(cell.Series.Counts["delivered"]) == 0 {
		t.Error("campaign cell carries no time series")
	}
}
