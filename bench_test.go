// Benchmarks that regenerate every figure and table of the reproduced
// evaluation at smoke scale (`adhocsim figs` runs the full-scale
// versions). Each benchmark executes one complete experiment per iteration
// and reports the headline metric(s) via b.ReportMetric, so `go test
// -bench=.` doubles as a quick shape check: DSR should report the lowest
// overhead, DSDV the lowest pause-0 delivery, and so on.
//
// BenchmarkAblation* quantify the design choices called out in DESIGN.md.
package adhocsim_test

import (
	"context"
	"io"
	"math"
	"runtime"
	"testing"

	"adhocsim"
	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/geo"
	"adhocsim/internal/mac"
	"adhocsim/internal/routing/aodv"
	"adhocsim/internal/routing/cbrp"
	"adhocsim/internal/routing/dsdv"
	"adhocsim/internal/routing/dsr"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

// benchOptions returns the smoke-scale study configuration used by the
// figure benchmarks: 25 nodes, 60 simulated seconds, one seed.
func benchOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Base.Nodes = 25
	opts.Base.Area = geo.Rect{W: 1000, H: 300}
	opts.Base.Duration = 60 * sim.Second
	opts.Base.Sources = 8
	opts.Seeds = []int64{1}
	return opts
}

var benchPauses = []float64{0, 30, 60}

// reportPerProtocol emits metric values for the most mobile point (x index
// 0) of a sweep, labelled per protocol.
func reportPerProtocol(b *testing.B, sweep *core.SweepResult, m core.Metric) {
	for _, p := range sweep.Protocols {
		b.ReportMetric(m.Value(sweep.Cells[p][0]), p+"_"+m.Name)
	}
}

func runPauseSweep(b *testing.B, opts core.Options) *core.SweepResult {
	b.Helper()
	var sweep *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = campaign.Sweep(context.Background(), opts, core.PauseAxis(benchPauses))
		if err != nil {
			b.Fatal(err)
		}
	}
	return sweep
}

// pauseZeroSweep runs the single pause-0 point that Figure 5 and Tables 1–2
// view.
func pauseZeroSweep(b *testing.B, opts core.Options) *core.SweepResult {
	b.Helper()
	sweep, err := campaign.Sweep(context.Background(), opts, core.PauseAxis([]float64{0}))
	if err != nil {
		b.Fatal(err)
	}
	return sweep
}

// BenchmarkFig1_PDRvsPause regenerates Figure 1 (packet delivery ratio vs
// pause time, all protocols).
func BenchmarkFig1_PDRvsPause(b *testing.B) {
	sweep := runPauseSweep(b, benchOptions())
	reportPerProtocol(b, sweep, core.MetricPDR)
}

// BenchmarkFig2_OverheadVsPause regenerates Figure 2 (routing overhead vs
// pause time).
func BenchmarkFig2_OverheadVsPause(b *testing.B) {
	sweep := runPauseSweep(b, benchOptions())
	reportPerProtocol(b, sweep, core.MetricOverhead)
}

// BenchmarkFig3_DelayVsPause regenerates Figure 3 (average end-to-end delay
// vs pause time).
func BenchmarkFig3_DelayVsPause(b *testing.B) {
	sweep := runPauseSweep(b, benchOptions())
	reportPerProtocol(b, sweep, core.MetricDelay)
}

// BenchmarkFig4_ThroughputVsPause regenerates Figure 4 (delivered
// throughput vs pause time).
func BenchmarkFig4_ThroughputVsPause(b *testing.B) {
	sweep := runPauseSweep(b, benchOptions())
	reportPerProtocol(b, sweep, core.MetricThroughput)
}

// BenchmarkFig5_PathOptimality regenerates Figure 5 (hops beyond optimal).
func BenchmarkFig5_PathOptimality(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		for p, h := range core.PathOptimality(pauseZeroSweep(b, opts)) {
			var total, optimal uint64
			for e, n := range h {
				total += n
				if e == 0 {
					optimal += n
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(optimal)/float64(total), p+"_optimal_pct")
			}
		}
	}
}

// BenchmarkFig6_Density regenerates Figure 6 (metrics vs node count).
func BenchmarkFig6_Density(b *testing.B) {
	opts := benchOptions()
	var sweep *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = campaign.Sweep(context.Background(), opts, core.NodesAxis([]float64{10, 20, 30}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range sweep.Protocols {
		last := len(sweep.Xs) - 1
		b.ReportMetric(core.MetricPDR.Value(sweep.Cells[p][last]), p+"_pdr_dense")
	}
}

// BenchmarkFig7_Load regenerates Figure 7 (delay/throughput vs offered
// load).
func BenchmarkFig7_Load(b *testing.B) {
	opts := benchOptions()
	var sweep *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = campaign.Sweep(context.Background(), opts, core.RateAxis([]float64{1, 4, 8}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range sweep.Protocols {
		last := len(sweep.Xs) - 1
		b.ReportMetric(core.MetricThroughput.Value(sweep.Cells[p][last]), p+"_tput_loaded")
	}
}

// BenchmarkFig8_Speed regenerates Figure 8 (PDR/overhead vs max speed).
func BenchmarkFig8_Speed(b *testing.B) {
	opts := benchOptions()
	var sweep *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = campaign.Sweep(context.Background(), opts, core.SpeedAxis([]float64{1, 10, 20}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range sweep.Protocols {
		last := len(sweep.Xs) - 1
		b.ReportMetric(core.MetricPDR.Value(sweep.Cells[p][last]), p+"_pdr_fast")
	}
}

// BenchmarkTable1_Summary regenerates Table 1 (per-protocol summary at
// pause 0).
func BenchmarkTable1_Summary(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		for p, r := range core.SummaryTable(pauseZeroSweep(b, opts)) {
			b.ReportMetric(r.PDR*100, p+"_pdr")
			b.ReportMetric(r.NormalizedRoutingLoad, p+"_nrl")
		}
	}
}

// BenchmarkTable2_Breakdown regenerates Table 2 (overhead by message type).
func BenchmarkTable2_Breakdown(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		for p, r := range core.SummaryTable(pauseZeroSweep(b, opts)) {
			var total uint64
			for _, n := range r.RoutingByType {
				total += n
			}
			b.ReportMetric(float64(total), p+"_routing_tx")
		}
	}
}

// --- ablation benches (design choices from DESIGN.md) ---------------------

func ablationSpec() scenario.Spec {
	s := scenario.Default()
	s.Nodes = 25
	s.Area = geo.Rect{W: 1000, H: 300}
	s.Duration = 60 * sim.Second
	s.Sources = 8
	return s
}

func runAblation(b *testing.B, proto string, tweaks core.ProtocolTweaks, macCfg mac.Config) (pdr, overhead float64) {
	b.Helper()
	res, err := core.Run(context.Background(), core.RunConfig{
		Spec: ablationSpec(), Protocol: proto, Seed: 1, Tweaks: tweaks, Mac: macCfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.PDR * 100, float64(res.RoutingTxPackets)
}

// BenchmarkAblationRTSCTS compares the MAC with and without the RTS/CTS
// exchange for unicast data.
func BenchmarkAblationRTSCTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		onPDR, _ := runAblation(b, core.DSR, core.ProtocolTweaks{}, mac.Config{})
		offPDR, _ := runAblation(b, core.DSR, core.ProtocolTweaks{}, mac.Config{RTSThreshold: 1 << 20})
		b.ReportMetric(onPDR, "pdr_rtscts_on")
		b.ReportMetric(offPDR, "pdr_rtscts_off")
	}
}

// BenchmarkAblationExpandingRing compares AODV's expanding-ring search with
// immediate network-wide floods.
func BenchmarkAblationExpandingRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, ringTx := runAblation(b, core.AODV, core.ProtocolTweaks{}, mac.Config{})
		_, fullTx := runAblation(b, core.AODV,
			core.ProtocolTweaks{AODV: aodv.Config{DisableExpandingRing: true}}, mac.Config{})
		b.ReportMetric(ringTx, "rreq_tx_ring")
		b.ReportMetric(fullTx, "rreq_tx_full")
	}
}

// BenchmarkAblationDSRCacheReplies compares DSR with and without replies
// from intermediate caches.
func BenchmarkAblationDSRCacheReplies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, onTx := runAblation(b, core.DSR, core.ProtocolTweaks{}, mac.Config{})
		_, offTx := runAblation(b, core.DSR,
			core.ProtocolTweaks{DSR: dsr.Config{DisableReplyFromCache: true}}, mac.Config{})
		b.ReportMetric(onTx, "overhead_cache_on")
		b.ReportMetric(offTx, "overhead_cache_off")
	}
}

// BenchmarkAblationCBRPClusterFlood compares CBRP's head/gateway-restricted
// flooding against blind flooding.
func BenchmarkAblationCBRPClusterFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, onTx := runAblation(b, core.CBRP, core.ProtocolTweaks{}, mac.Config{})
		_, offTx := runAblation(b, core.CBRP,
			core.ProtocolTweaks{CBRP: cbrp.Config{DisableClusterFlooding: true}}, mac.Config{})
		b.ReportMetric(onTx, "overhead_cluster")
		b.ReportMetric(offTx, "overhead_blind")
	}
}

// BenchmarkAblationDSDVTriggered compares DSDV with and without triggered
// updates.
func BenchmarkAblationDSDVTriggered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		onPDR, _ := runAblation(b, core.DSDV, core.ProtocolTweaks{}, mac.Config{})
		offPDR, _ := runAblation(b, core.DSDV,
			core.ProtocolTweaks{DSDV: dsdv.Config{DisableTriggered: true}}, mac.Config{})
		b.ReportMetric(onPDR, "pdr_triggered")
		b.ReportMetric(offPDR, "pdr_periodic_only")
	}
}

// BenchmarkAblationPAODV compares plain AODV against preemptive AODV.
func BenchmarkAblationPAODV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plainPDR, plainTx := runAblation(b, core.AODV, core.ProtocolTweaks{}, mac.Config{})
		prePDR, preTx := runAblation(b, core.PAODV, core.ProtocolTweaks{}, mac.Config{})
		b.ReportMetric(plainPDR, "pdr_aodv")
		b.ReportMetric(prePDR, "pdr_paodv")
		b.ReportMetric(plainTx, "overhead_aodv")
		b.ReportMetric(preTx, "overhead_paodv")
	}
}

// BenchmarkSingleRun measures raw simulator throughput for one standard run
// (events/sec is visible through ns/op).
func BenchmarkSingleRun(b *testing.B) {
	spec := ablationSpec()
	for i := 0; i < b.N; i++ {
		if _, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// largeNSpec is the large-N scenario behind the spatial-index speedup
// claim: 200 CBRP nodes beaconing across a sparse 16×16 km field for 900
// simulated seconds. The regime is deliberately PHY-bound — every HELLO is
// a broadcast the channel must fan out, so the per-transmission receiver
// scan dominates the run and the O(N) brute-force loop pays for all 200
// radios on every one of ~90k transmissions. Dense scenes (every node
// within carrier-sense range of most others) are MAC- and heap-bound
// instead and gain far less; see DESIGN.md.
func largeNSpec() adhocsim.Spec {
	s := adhocsim.DefaultSpec()
	s.Nodes = 200
	s.Area = geo.Rect{W: 16000, H: 16000}
	s.TxRange = 100
	s.Sources = 1
	s.Rate = 0.25
	s.Duration = 900 * sim.Second
	return s
}

func runLargeN(b *testing.B, spec adhocsim.Spec, phy adhocsim.PhyConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := adhocsim.Run(adhocsim.RunConfig{
			Spec:     spec,
			Protocol: adhocsim.CBRP,
			Seed:     1,
			Phy:      phy,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.RoutingTxPackets == 0 {
			b.Fatal("large-N run produced no beacon traffic")
		}
	}
}

// BenchmarkSingleRunLargeN measures one 200-node run on the spatial-index
// transmit path (the default).
func BenchmarkSingleRunLargeN(b *testing.B) {
	runLargeN(b, largeNSpec(), adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second})
}

// BenchmarkSingleRunLargeNBruteForce is the identical run on the legacy
// all-radios loop; the ns/op ratio against BenchmarkSingleRunLargeN is the
// spatial index's speedup (≥5× on the reference hardware).
func BenchmarkSingleRunLargeNBruteForce(b *testing.B) {
	runLargeN(b, largeNSpec(), adhocsim.PhyConfig{BruteForce: true})
}

// BenchmarkSingleRunLargeNGaussMarkov is the same 200-node spatial-index
// run under registry-selected Gauss-Markov mobility, so the committed
// baseline tracks a non-waypoint scenario. Gauss-Markov emits one segment
// per node per tick (~900 per track here vs a handful for waypoint),
// stressing track evaluation and the index's speed-bound padding.
func BenchmarkSingleRunLargeNGaussMarkov(b *testing.B) {
	spec := largeNSpec()
	spec.Mobility = adhocsim.MobilitySpec{Name: "gauss-markov"}
	runLargeN(b, spec, adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second})
}

// cityScaleSpec scales the large-N scenario to n nodes at constant density
// (area grows with √n, exactly what core.ScaleAxis does) under
// registry-selected Manhattan mobility — the city-scale regime: a street
// grid of beaconing CBRP nodes, thousands of pending events, working sets
// far beyond cache. Duration is one simulated minute so both tiers stay
// benchable.
func cityScaleSpec(n int) adhocsim.Spec {
	s := largeNSpec()
	k := math.Sqrt(float64(n) / float64(s.Nodes))
	s.Area = geo.Rect{W: s.Area.W * k, H: s.Area.H * k}
	s.Nodes = n
	s.Mobility = adhocsim.MobilitySpec{Name: "manhattan"}
	s.Duration = 60 * sim.Second
	return s
}

// BenchmarkSingleRunCityScale is the city-scale tier: 5k- and 10k-node
// single runs under Manhattan mobility at the large-N density. Allocations
// per run are reported so a per-event allocation regression on the
// flattened hot path is visible in the committed baseline.
func BenchmarkSingleRunCityScale(b *testing.B) {
	for _, tc := range []struct {
		name  string
		nodes int
	}{
		{"5k", 5000},
		{"10k", 10000},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := cityScaleSpec(tc.nodes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := adhocsim.Run(adhocsim.RunConfig{
					Spec:     spec,
					Protocol: adhocsim.CBRP,
					Seed:     1,
					Phy:      adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.RoutingTxPackets == 0 {
					b.Fatal("city-scale run produced no beacon traffic")
				}
			}
		})
	}
}

// BenchmarkSingleRunCityScaleChurn prices dynamic membership at city
// scale: the 10k-node run under the alternating-renewal failure model, so
// thousands of nodes fail and recover mid-run. The delta against the
// churn-free 10k tier prices the liveness bitmap on the transmit hot
// path plus the Down/Up membership events themselves.
func BenchmarkSingleRunCityScaleChurn(b *testing.B) {
	spec := cityScaleSpec(10000)
	spec.Lifecycle = adhocsim.LifecycleSpec{
		Name:   "onoff-fail",
		Params: map[string]float64{"mean_up_s": 30, "mean_down_s": 10},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := adhocsim.Run(adhocsim.RunConfig{
			Spec:     spec,
			Protocol: adhocsim.CBRP,
			Seed:     1,
			Phy:      adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Joins+res.Leaves == 0 {
			b.Fatal("city-scale churn run recorded no membership transitions")
		}
	}
}

// TestLargeNAllocationBudget is the allocation-regression tripwire behind
// the b.ReportAllocs numbers: one 200-node large-N run must stay under a
// generous heap-allocation budget. The hot paths are pooled (events,
// arrivals, receptions) and the per-node state is flattened, so steady-state
// allocation is dominated by setup (tracks, protocol state) — if this
// trips, something started allocating per event, which at city scale means
// millions of allocations per simulated minute.
func TestLargeNAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("one 900 s large-N run")
	}
	spec := largeNSpec()
	phy := adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.CBRP, Seed: 1, Phy: phy})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.RoutingTxPackets == 0 {
		t.Fatal("large-N run produced no beacon traffic")
	}
	mallocs := after.Mallocs - before.Mallocs
	// About 3× the 13 500 this run makes: the MAC exchange allocates
	// nothing once warm, and a node's HELLO is one object, rebuilt in
	// place once its radio has released the last one. The budget is a
	// coarse bound meant to catch per-event allocation creep, not to pin
	// the exact count.
	const budget = 45_000
	if mallocs > budget {
		t.Fatalf("large-N run performed %d heap allocations, budget %d", mallocs, budget)
	}
	t.Logf("%d heap allocations", mallocs)
}

// TestPaperRegimeAllocationBudget is the allocation tripwire of the paper's
// own regime: one 200 s AODV run of the study scene (40 nodes, 1500×300 m,
// pause 0), where route-request floods and HELLO beacons make broadcast
// receptions the most common packet event. Every receiver of a broadcast
// shares the sender's packet; the run makes about 31 000 allocations, and a
// per-receiver copy would add about 100 000.
func TestPaperRegimeAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("one 200 s study run")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 200 * sim.Second
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.AODV, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.RoutingTxPackets == 0 {
		t.Fatal("study run produced no routing traffic")
	}
	mallocs := after.Mallocs - before.Mallocs
	const budget = 90_000
	if mallocs > budget {
		t.Fatalf("study run performed %d heap allocations, budget %d", mallocs, budget)
	}
	t.Logf("%d heap allocations", mallocs)
}

// largeNSinks is one of every production metric sink: quantile sketches on
// delay and hops, a 60-bucket time series, per-kind Welford cells, and a
// JSONL dump to io.Discard. Matches what campaign execution attaches plus
// the stream dump, so the benchmark prices the full streaming tap.
func largeNSinks(spec adhocsim.Spec) []adhocsim.MetricSink {
	return []adhocsim.MetricSink{
		adhocsim.NewSketchSink(100, adhocsim.MetricDelaySec, adhocsim.MetricHops),
		adhocsim.NewWindowSink(spec.Duration, 60),
		adhocsim.NewWelfordSink(),
		adhocsim.NewJSONLSink(io.Discard),
	}
}

// BenchmarkSingleRunLargeNMetrics is the 200-node spatial-index run with the
// full sink set attached; the ns/op delta against BenchmarkSingleRunLargeN
// prices the streaming-metrics tap on the event hot path.
func BenchmarkSingleRunLargeNMetrics(b *testing.B) {
	spec := largeNSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := adhocsim.Run(adhocsim.RunConfig{
			Spec:     spec,
			Protocol: adhocsim.CBRP,
			Seed:     1,
			Phy:      adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second},
			Sinks:    largeNSinks(spec),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.RoutingTxPackets == 0 {
			b.Fatal("large-N run produced no beacon traffic")
		}
	}
}

// TestLargeNAllocationBudgetAllSinks holds the sinked run to the same budget
// as the sinkless one: every sink is bounded (sketch centroids are capped,
// the window has fixed buckets, the JSONL writer reuses its encode buffer),
// so attaching them must not introduce per-event allocation.
func TestLargeNAllocationBudgetAllSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("one 900 s large-N run")
	}
	spec := largeNSpec()
	sinks := largeNSinks(spec)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := adhocsim.Run(adhocsim.RunConfig{
		Spec: spec, Protocol: adhocsim.CBRP, Seed: 1,
		Phy:   adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second},
		Sinks: sinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.RoutingTxPackets == 0 {
		t.Fatal("large-N run produced no beacon traffic")
	}
	mallocs := after.Mallocs - before.Mallocs
	const budget = 45_000 // same cap as TestLargeNAllocationBudget
	if mallocs > budget {
		t.Fatalf("sinked large-N run performed %d heap allocations, budget %d", mallocs, budget)
	}
}

// BenchmarkSingleRunLargeNSINR is the 200-node run with cumulative-
// interference SINR reception on the spatial-index transmit path (no
// brute-force fallback: the interference sum is floored at the
// carrier-sense threshold, so the index's candidate set is exactly the
// interferer set). The delta against BenchmarkSingleRunLargeN prices the
// per-arrival interference accounting.
func BenchmarkSingleRunLargeNSINR(b *testing.B) {
	spec := largeNSpec()
	spec.Radio.SINR = true
	runLargeN(b, spec, adhocsim.PhyConfig{ReindexInterval: 5 * sim.Second})
}
