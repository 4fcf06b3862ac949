package adhocsim_test

import (
	"context"
	"reflect"
	"testing"

	"adhocsim"
	"adhocsim/internal/core"
	"adhocsim/internal/network"
	"adhocsim/internal/sim"
	"adhocsim/internal/topo"
	"adhocsim/internal/traffic"
)

// queuePins are the two event-queue oracles every scheduler parity check
// compares the zero value — the engine choosing for itself — against.
var queuePins = []sim.QueueKind{sim.QueueHeap, sim.QueueCalendar}

// requireQueueParity runs once on the engine's own choice and once per pin,
// and fails unless all three outcomes are reflect.DeepEqual. (at, seq) is a
// strict total order, and a queue that dispatches it faithfully — or a move
// from one such queue to the other mid-run — cannot perturb a single counter
// or float.
func requireQueueParity[T any](t *testing.T, run func(adhocsim.PhyConfig) T) T {
	t.Helper()
	auto := run(adhocsim.PhyConfig{})
	for _, pin := range queuePins {
		if got := run(adhocsim.PhyConfig{Scheduler: pin}); !reflect.DeepEqual(auto, got) {
			t.Errorf("pinned %v queue diverges from the engine's own choice", pin)
		}
	}
	return auto
}

// TestSchedulerParityGoldenRuns: the self-selecting engine and both pinned
// queues must reproduce the golden DSR/AODV seed-1 study runs bit-for-bit.
// TestSeedParityDefaultStudyRuns pins the default (self-selecting) results
// to the captured golden numbers, so DeepEqual here transitively pins both
// implementations to them too.
func TestSchedulerParityGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("six 150 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 150 * adhocsim.Second
	for _, proto := range []string{adhocsim.DSR, adhocsim.AODV} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			requireQueueParity(t, func(phy adhocsim.PhyConfig) adhocsim.Results {
				res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: 1, Phy: phy})
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		})
	}
}

// TestSchedulerParityGridBrute extends the grid-vs-brute parity suite
// across the scheduler axis: the spatial-index transmit path under either
// pinned queue must match the brute-force path under the engine's own
// choice — runs sharing neither the receiver-candidate enumeration nor the
// event-queue shape, equal only because all respect the same dispatch order
// and the same exact per-leg power test.
func TestSchedulerParityGridBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("three 60 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 60 * adhocsim.Second
	requireQueueParity(t, func(phy adhocsim.PhyConfig) adhocsim.Results {
		phy.BruteForce = phy.Scheduler == 0
		res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1, Phy: phy})
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// worldRun is core.Run's wiring with the world in hand, so a test can see
// which queue the engine is on before the first event and after the last.
func worldRun(t *testing.T, rc adhocsim.RunConfig) (res adhocsim.Results, started, ended sim.QueueKind) {
	t.Helper()
	inst, err := rc.Spec.Generate(rc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := core.FactoryFor(rc.Protocol, inst.Radio, rc.Tweaks)
	if err != nil {
		t.Fatal(err)
	}
	world, err := network.NewWorld(network.Config{
		Tracks:    inst.Tracks,
		Radio:     inst.Radio,
		Phy:       rc.Phy,
		Protocol:  factory,
		Seed:      rc.Seed ^ 0x5eed,
		Oracle:    topo.NewOracle(inst.Tracks, inst.Radio.RxRange()),
		Lifecycle: inst.Lifecycle,
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(0).Add(rc.Spec.Duration)
	if _, err := traffic.Install(world, inst.Connections, horizon); err != nil {
		t.Fatal(err)
	}
	world.Start()
	started = world.Eng.Queue()
	if err := world.Run(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	return world.Collector.Finalize(), started, world.Eng.Queue()
}

// TestSchedulerParityAcrossMigration: a scene whose queue outgrows the
// engine's threshold only once traffic is flowing — so the move from heap to
// calendar happens mid-run, between MAC exchanges, route timers and (second
// case) churn's membership events — must finish DeepEqual to both pinned
// queues and to what the facade returns for the same run.
func TestSchedulerParityAcrossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 8 s runs at 200 nodes")
	}
	for _, lifecycle := range []adhocsim.LifecycleSpec{
		{},
		// Few enough membership events that Start's bulk schedule of them
		// stays under the threshold too.
		{Name: "onoff-fail", Params: map[string]float64{"mean_up_s": 20, "mean_down_s": 5}},
	} {
		lifecycle := lifecycle
		name := "static"
		if lifecycle.Name != "" {
			name = lifecycle.Name
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := adhocsim.DefaultSpec()
			spec.Nodes = 200
			spec.Sources = 60
			spec.StartMin = 1 * adhocsim.Second
			spec.StartMax = 3 * adhocsim.Second
			spec.Duration = 8 * adhocsim.Second
			spec.Lifecycle = lifecycle
			rc := adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.AODV, Seed: 3}
			auto := requireQueueParity(t, func(phy adhocsim.PhyConfig) adhocsim.Results {
				rc := rc
				rc.Phy = phy
				res, started, ended := worldRun(t, rc)
				wantStart, wantEnd := phy.Scheduler, phy.Scheduler
				if phy.Scheduler == 0 {
					wantStart, wantEnd = sim.QueueHeap, sim.QueueCalendar
				}
				if started != wantStart || ended != wantEnd {
					t.Errorf("Scheduler %v: started on the %v, ended on the %v; want %v then %v",
						phy.Scheduler, started, ended, wantStart, wantEnd)
				}
				return res
			})
			if lifecycle.Name != "" && auto.Joins+auto.Leaves == 0 {
				t.Error("churn run recorded no membership transitions")
			}
			facade, err := adhocsim.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(auto, facade) {
				t.Errorf("worldRun diverges from adhocsim.Run:\nworld  %+v\nfacade %+v", auto, facade)
			}
		})
	}
}
