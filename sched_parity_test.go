package adhocsim_test

import (
	"reflect"
	"testing"

	"adhocsim"
	"adhocsim/internal/sim"
)

// TestSchedulerParityGoldenRuns: PhyConfig.Scheduler is read nowhere, so
// the golden DSR/AODV seed-1 study runs under the name the benchmark's city
// workloads pass, sim.QueueCalendar, must be DeepEqual to the default run,
// which TestSeedParityDefaultStudyRuns pins to the captured golden numbers.
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
			run := func(phy adhocsim.PhyConfig) adhocsim.Results {
				res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: 1, Phy: phy})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if want, got := run(adhocsim.PhyConfig{}), run(adhocsim.PhyConfig{Scheduler: sim.QueueCalendar}); !reflect.DeepEqual(want, got) {
				t.Error("Scheduler: sim.QueueCalendar changes the results")
			}
		})
	}
}

// TestSchedulerParityGridBrute: the spatial-index transmit path must match
// the brute-force path — runs sharing no receiver-candidate enumeration,
// equal only because both respect the same dispatch order and the same
// exact per-leg power test.
func TestSchedulerParityGridBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 60 * adhocsim.Second
	run := func(phy adhocsim.PhyConfig) adhocsim.Results {
		res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1, Phy: phy})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if grid, brute := run(adhocsim.PhyConfig{}), run(adhocsim.PhyConfig{BruteForce: true}); !reflect.DeepEqual(grid, brute) {
		t.Errorf("grid index diverges from brute force:\ngrid:  %+v\nbrute: %+v", grid, brute)
	}
}
