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

// TestSchedulerParityGoldenRuns: the calendar-queue scheduler must
// reproduce the heap's golden DSR/AODV seed-1 study runs bit-for-bit.
// TestSeedParityDefaultStudyRuns pins the heap results to the captured
// golden numbers, so DeepEqual here transitively pins the calendar queue to
// them too — (at, seq) is a strict total order, and a queue implementation
// that dispatches it faithfully cannot perturb a single counter or float.
func TestSchedulerParityGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("four 150 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 150 * adhocsim.Second
	for _, proto := range []string{adhocsim.DSR, adhocsim.AODV} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			heap, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cal, err := adhocsim.Run(adhocsim.RunConfig{
				Spec: spec, Protocol: proto, Seed: 1,
				Phy: adhocsim.PhyConfig{Scheduler: adhocsim.QueueCalendar},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(heap, cal) {
				t.Fatalf("calendar queue diverges from heap:\nheap     %+v\ncalendar %+v", heap, cal)
			}
		})
	}
}

// TestSchedulerParityGridBrute extends the grid-vs-brute parity suite
// across the scheduler axis: the spatial-index transmit path under the
// calendar queue must match the brute-force path under the heap — two runs
// sharing neither the receiver-candidate enumeration nor the event-queue
// shape, equal only because both respect the same dispatch order and the
// same exact per-leg power test.
func TestSchedulerParityGridBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 60 * adhocsim.Second
	brute, err := adhocsim.Run(adhocsim.RunConfig{
		Spec: spec, Protocol: adhocsim.DSR, Seed: 1,
		Phy: adhocsim.PhyConfig{BruteForce: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	gridCal, err := adhocsim.Run(adhocsim.RunConfig{
		Spec: spec, Protocol: adhocsim.DSR, Seed: 1,
		Phy: adhocsim.PhyConfig{Scheduler: adhocsim.QueueCalendar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(brute, gridCal) {
		t.Fatalf("grid+calendar diverges from brute+heap:\nbrute    %+v\ngrid/cal %+v", brute, gridCal)
	}
}

// worldRun is core.Run's wiring with the world in hand.
func worldRun(t *testing.T, rc adhocsim.RunConfig) adhocsim.Results {
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
	if err := world.Run(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	return world.Collector.Finalize()
}

// TestSchedulerParityAcrossMigration pins, before the engine starts choosing
// its own queue, the scene that choice will be tested on: 200 nodes whose
// pending events pass 512 only once traffic is flowing, with and without
// churn. Heap and calendar must finish DeepEqual, and the world assembled
// here must match what the facade returns for the same run.
func TestSchedulerParityAcrossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("six 8 s runs at 200 nodes")
	}
	for _, lifecycle := range []adhocsim.LifecycleSpec{
		{},
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
			heap := worldRun(t, rc)
			if lifecycle.Name != "" && heap.Joins+heap.Leaves == 0 {
				t.Error("churn run recorded no membership transitions")
			}
			cal := rc
			cal.Phy.Scheduler = adhocsim.QueueCalendar
			if got := worldRun(t, cal); !reflect.DeepEqual(heap, got) {
				t.Error("calendar queue diverges from heap")
			}
			facade, err := adhocsim.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(heap, facade) {
				t.Errorf("worldRun diverges from adhocsim.Run:\nworld  %+v\nfacade %+v", heap, facade)
			}
		})
	}
}
