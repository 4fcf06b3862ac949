package adhocsim_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"testing"

	"adhocsim"
)

// churnReplaySpec is the fixed (spec, seed) pair the cross-process replay
// pins: a 20-node hour-fraction run under the alternating-renewal failure
// model, busy enough that every event kind appears.
func churnReplaySpec() adhocsim.Spec {
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 20
	spec.Duration = 60 * adhocsim.Second
	spec.Sources = 3
	spec.Lifecycle = adhocsim.LifecycleSpec{
		Name:   "onoff-fail",
		Params: map[string]float64{"mean_up_s": 20, "mean_down_s": 5},
	}
	return spec
}

const churnHelperEnv = "ADHOCSIM_CHURN_SCHEDULE_HELPER"

// TestChurnScheduleHelperProcess is not a test of its own: the
// cross-process replay test re-executes the test binary with
// ADHOCSIM_CHURN_SCHEDULE_HELPER=1 so this process compiles the churn
// schedule from scratch and prints it.
func TestChurnScheduleHelperProcess(t *testing.T) {
	if os.Getenv(churnHelperEnv) != "1" {
		t.Skip("helper for TestChurnScheduleCrossProcessReplay")
	}
	inst, err := churnReplaySpec().Generate(99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(inst.Lifecycle)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("SCHEDULE %s\n", b)
}

// TestChurnScheduleCrossProcessReplay: a churn schedule must be a pure
// function of (spec, seed) across process boundaries — the property that
// lets distributed workers and journal resumes replay identical membership
// without shipping the schedule itself.
func TestChurnScheduleCrossProcessReplay(t *testing.T) {
	inst, err := churnReplaySpec().Generate(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Lifecycle) == 0 {
		t.Fatal("replay spec compiled to an empty schedule")
	}
	want, err := json.Marshal(inst.Lifecycle)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=TestChurnScheduleHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), churnHelperEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	var got []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("SCHEDULE ")); ok {
			got = append([]byte(nil), rest...)
			break
		}
	}
	if got == nil {
		t.Fatalf("helper printed no schedule:\n%s", out)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cross-process schedule diverges:\nhere:  %s\nthere: %s", want, got)
	}
}

// churnEngineSpec is the dense short scenario the engine-parity sweep runs
// under failure churn: mean up/down periods well inside the 15 s horizon,
// so nodes fail and recover while routes are live.
func churnEngineSpec() adhocsim.Spec {
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 40
	spec.Duration = 15 * adhocsim.Second
	spec.StartMin = 1 * adhocsim.Second
	spec.StartMax = 3 * adhocsim.Second
	spec.Lifecycle = adhocsim.LifecycleSpec{
		Name:   "onoff-fail",
		Params: map[string]float64{"mean_up_s": 8, "mean_down_s": 3},
	}
	return spec
}

// TestChurnEngineParity: the grid and brute-force transmit paths, provably
// result-identical for fixed populations, must stay identical under churn —
// the spatial index's liveness masking sits on the churn-touched hot path.
func TestChurnEngineParity(t *testing.T) {
	for _, proto := range []string{adhocsim.Autoconf, adhocsim.AODV} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			run := func(phy adhocsim.PhyConfig) adhocsim.Results {
				t.Helper()
				res, err := adhocsim.Run(adhocsim.RunConfig{
					Spec: churnEngineSpec(), Protocol: proto, Seed: 5, Phy: phy,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(adhocsim.PhyConfig{})
			if base.Joins+base.Leaves == 0 {
				t.Fatal("onoff-fail run recorded no membership transitions")
			}
			if brute := run(adhocsim.PhyConfig{BruteForce: true}); !reflect.DeepEqual(base, brute) {
				t.Errorf("grid index diverges from brute force under churn:\ngrid:  %+v\nbrute: %+v", base, brute)
			}
		})
	}
}

// TestChurnStaticZeroValueParity: an explicit {Name: "static"} lifecycle
// must be reflect.DeepEqual to the zero-value spec — the guarantee that
// keeps every pre-lifecycle golden capture valid.
func TestChurnStaticZeroValueParity(t *testing.T) {
	spec := adhocsim.DefaultSpec()
	spec.Duration = 10 * adhocsim.Second
	zero, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.Lifecycle = adhocsim.LifecycleSpec{Name: "static"}
	named, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, named) {
		t.Fatalf("explicit static lifecycle diverges from the zero value:\nzero:  %+v\nnamed: %+v", zero, named)
	}
	if zero.Joins != 0 || zero.Leaves != 0 {
		t.Fatalf("static run recorded membership churn: %d joins, %d leaves", zero.Joins, zero.Leaves)
	}
}
