package main

import (
	"fmt"
	"math"

	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/geo"
	"adhocsim/internal/phy"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

// workloads lists the workloads in the order they run and report.
var workloads = []struct {
	Name string
	Run  func(opt options) *result
}{
	{"paper_study", func(opt options) *result { return runSim("paper_study", paperStudy(opt.Seed, opt.Tiny), opt) }},
	{"city_10k", func(opt options) *result { return runSim("city_10k", city10k(opt.Seed, false, opt.Tiny), opt) }},
	{"city_10k_churn", func(opt options) *result { return runSim("city_10k_churn", city10k(opt.Seed, true, opt.Tiny), opt) }},
	{"campaign_cluster", runClusterWorkload},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// sceneSeed generates the simulation workloads' movement and traffic
// patterns. They are the scene, fixed like the scenario files of the paper's
// study; -seed seeds the simulator (MAC backoff, protocol jitter). A 40-node
// topology drawn afresh per seed moves a run's host time by ±20%, which
// would drown any regression bound.
const sceneSeed = 1

// simConfig is one (scene, protocol) pair of a simulation workload.
type simConfig struct {
	Name string
	// RC is what core.Run would take; RC.Seed seeds the simulator.
	RC core.RunConfig
	// SceneSeed generates mobility, traffic and churn. core.Run uses
	// RC.Seed for this too, so the facade can express the config only
	// where the two are equal.
	SceneSeed int64
	// WantRouting makes zero routing transmissions a failed check.
	WantRouting bool
}

// paperStudy is the regime the paper studies: the default 40-node scene cut
// to a 200 s horizon, each of the five study protocols at constant motion
// (pause 0) and at rest (pause = horizon). Every node sits inside every
// other's carrier-sense range, so event dispatch, MAC contention and
// per-packet routing work dominate and the spatial index is idle.
func paperStudy(seed int64, tiny bool) []simConfig {
	spec := scenario.Default()
	spec.Duration = 200 * sim.Second
	if tiny {
		spec.Nodes, spec.Area = 12, geo.Rect{W: 600, H: 300}
		spec.Duration, spec.StartMin, spec.StartMax = 3*sim.Second, 0, sim.Second
	}
	var out []simConfig
	for _, proto := range core.StudyProtocols() {
		for _, pause := range []float64{0, 200} {
			s := spec
			s.Pause = sim.Seconds(pause)
			out = append(out, simConfig{
				Name:      fmt.Sprintf("%s/pause%g", proto, pause),
				RC:        core.RunConfig{Spec: s, Protocol: proto, Seed: seed},
				SceneSeed: sceneSeed, WantRouting: true,
			})
		}
	}
	return out
}

// city10k copies the scene behind BenchmarkSingleRunCityScale/10k-calendar:
// 10 000 CBRP nodes under Manhattan mobility at the large-N density (200
// nodes per 16×16 km), one simulated minute, reindexing every 5 s. Traffic
// is beacon broadcast over a working set far beyond cache, so the spatial
// index, mobility, channel fan-out and world construction dominate.
func city10k(seed int64, churn, tiny bool) []simConfig {
	n := 10000
	if tiny {
		n = 300
	}
	s := scenario.Default()
	k := math.Sqrt(float64(n) / 200)
	s.Nodes = n
	s.Area = geo.Rect{W: 16000 * k, H: 16000 * k}
	s.TxRange = 100
	s.Sources = 1
	s.Rate = 0.25
	s.Duration = 60 * sim.Second
	if tiny {
		s.Duration = 10 * sim.Second
	}
	s.Mobility = scenario.MobilitySpec{Name: "manhattan"}
	name := "CBRP/city10k"
	if churn {
		// A quarter of the population is down at any time: the liveness-
		// masked index scan, ~13k Up/Down hooks and CBRP re-clustering.
		s.Lifecycle = scenario.LifecycleSpec{
			Name:   "onoff-fail",
			Params: map[string]float64{"mean_up_s": 30, "mean_down_s": 10},
		}
		name += "/churn"
	}
	return []simConfig{{Name: name, SceneSeed: sceneSeed, WantRouting: true, RC: core.RunConfig{
		Spec:     s,
		Protocol: core.CBRP,
		Seed:     seed,
		Phy:      phy.Config{ReindexInterval: 5 * sim.Second, Scheduler: cityScheduler},
	}}}
}

// clusterSpec is the smallest-unit campaign for the service: 12 nodes on
// 600×300 m for 20 s, five protocols × four pause times × reps
// replications. A unit costs a few milliseconds, so commit, journal append,
// sketch fold, Results JSON and the lease/commit round trips take a visible
// share of the wall time; with study-size units they would vanish.
func clusterSpec(seed int64, reps int, tiny bool) campaign.Spec {
	nodes, sources := 12, 3
	w, h, dur := 600.0, 300.0, 20.0
	if tiny {
		dur = 5
	}
	return campaign.Spec{
		Name: "campaign_cluster",
		Base: campaign.ScenarioPatch{
			Nodes: &nodes, AreaW: &w, AreaH: &h, DurationS: &dur, Sources: &sources,
		},
		Axes:     []campaign.AxisSpec{{Name: "pause", Values: []float64{0, 5, 10, 20}}},
		BaseSeed: seed,
		MaxReps:  reps,
	}
}

const clusterReps = 200
