package lifecycle

import (
	"reflect"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

func testEnv(nodes int, dur sim.Duration) Env {
	return Env{Nodes: nodes, Duration: dur, Area: geo.Rect{W: 1500, H: 300}}
}

func TestBuiltinsRegistered(t *testing.T) {
	want := []string{"flashcrowd", "onoff-fail", "partition-heal", "staggered-join", "static"}
	if got := Models.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Models.Names() = %v, want %v", got, want)
	}
}

func TestStaticScheduleEmpty(t *testing.T) {
	m, err := New("", testEnv(40, 900*sim.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Schedule(testEnv(40, 900*sim.Second), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("static schedule has %d events, want none", len(events))
	}
	if up := InitialUp(events, 40); up != nil {
		t.Fatalf("InitialUp(empty) = %v, want nil (fixed-population fast path)", up)
	}
}

// TestScheduleDeterministic pins the registry contract every parity test
// builds on: the same (model, env, rng seed) triple yields the same
// schedule, draw for draw.
func TestScheduleDeterministic(t *testing.T) {
	env := testEnv(30, 120*sim.Second)
	env.Pos = func(node int, at sim.Time) geo.Point {
		return geo.Point{X: float64(node * 70), Y: 150}
	}
	for _, name := range Models.Names() {
		m, err := New(name, env, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := m.Schedule(env, sim.NewRNG(42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := m.Schedule(env, sim.NewRNG(42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: schedule is not a pure function of (env, rng)", name)
		}
		if err := Check(a, env.Nodes, env.Duration); err != nil {
			t.Errorf("%s: default-parameter schedule fails Check: %v", name, err)
		}
	}
}

func TestStaggeredJoinOnePerNode(t *testing.T) {
	env := testEnv(25, 120*sim.Second)
	m, err := New("staggered-join", env, map[string]float64{"start_s": 5, "window_s": 20})
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Schedule(env, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != env.Nodes {
		t.Fatalf("got %d events, want one join per node (%d)", len(events), env.Nodes)
	}
	joined := make(map[int]bool)
	lo, hi := sim.Time(0).Add(5*sim.Second), sim.Time(0).Add(25*sim.Second)
	for _, ev := range events {
		if ev.Kind != Join {
			t.Fatalf("unexpected %s event", ev.Kind)
		}
		if joined[ev.Node] {
			t.Fatalf("node %d joins twice", ev.Node)
		}
		joined[ev.Node] = true
		if ev.At < lo || ev.At.After(hi) {
			t.Fatalf("join of node %d at %v outside window [%v,%v]", ev.Node, ev.At, lo, hi)
		}
	}
	up := InitialUp(events, env.Nodes)
	for i, u := range up {
		if u {
			t.Fatalf("node %d starts up under staggered-join; every node must boot down", i)
		}
	}
}

func TestFlashCrowdBaseFraction(t *testing.T) {
	env := testEnv(200, 60*sim.Second)
	m, err := New("flashcrowd", env, map[string]float64{"base_frac": 0.25, "at_s": 10, "window_s": 2})
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Schedule(env, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// ~75% of 200 nodes should be burst arrivals; allow generous slack.
	if len(events) < 100 || len(events) > 190 {
		t.Fatalf("%d burst arrivals for base_frac=0.25 over 200 nodes — outside plausible range", len(events))
	}
	lo, hi := sim.Time(0).Add(10*sim.Second), sim.Time(0).Add(12*sim.Second)
	for _, ev := range events {
		if ev.Kind != Join || ev.At < lo || ev.At.After(hi) {
			t.Fatalf("bad burst event %+v", ev)
		}
	}
	up := InitialUp(events, env.Nodes)
	base := 0
	for _, u := range up {
		if u {
			base++
		}
	}
	if base+len(events) != env.Nodes {
		t.Fatalf("base (%d) + burst (%d) != population (%d)", base, len(events), env.Nodes)
	}
}

func TestOnOffFailAlternates(t *testing.T) {
	env := testEnv(15, 300*sim.Second)
	m, err := New("onoff-fail", env, map[string]float64{"mean_up_s": 30, "mean_down_s": 5})
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Schedule(env, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("mean_up 30s over a 300s run produced no failures")
	}
	// Per node, the renewal process must strictly alternate Fail/Recover
	// starting with Fail.
	perNode := make(map[int][]Event)
	for _, ev := range events {
		perNode[ev.Node] = append(perNode[ev.Node], ev)
	}
	for node, evs := range perNode {
		for i, ev := range evs {
			want := Fail
			if i%2 == 1 {
				want = Recover
			}
			if ev.Kind != want {
				t.Fatalf("node %d event %d is %s, want %s", node, i, ev.Kind, want)
			}
			if i > 0 && ev.At <= evs[i-1].At {
				t.Fatalf("node %d events not strictly increasing in time", node)
			}
		}
	}
	// Every node starts up: the first event of each node is a Fail.
	if up := InitialUp(events, env.Nodes); up != nil {
		for i, u := range up {
			if !u {
				t.Fatalf("node %d starts down under onoff-fail", i)
			}
		}
	}
}

func TestPartitionHealRegionStrip(t *testing.T) {
	env := testEnv(10, 120*sim.Second)
	// Nodes 0..9 sit at x = 0, 150, 300, ... 1350; region_frac 0.5 cuts at
	// x = 750, so nodes 0..5 go dark.
	env.Pos = func(node int, at sim.Time) geo.Point {
		return geo.Point{X: float64(node) * 150, Y: 100}
	}
	m, err := New("partition-heal", env, map[string]float64{"at_s": 30, "outage_s": 20, "region_frac": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Schedule(env, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	down, heal := sim.Time(0).Add(30*sim.Second), sim.Time(0).Add(50*sim.Second)
	fails, recovers := map[int]bool{}, map[int]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case Fail:
			if ev.At != down {
				t.Fatalf("fail at %v, want %v", ev.At, down)
			}
			fails[ev.Node] = true
		case Recover:
			if ev.At != heal {
				t.Fatalf("recover at %v, want %v", ev.At, heal)
			}
			recovers[ev.Node] = true
		default:
			t.Fatalf("unexpected %s event", ev.Kind)
		}
	}
	for node := 0; node < env.Nodes; node++ {
		inStrip := node <= 5
		if fails[node] != inStrip || recovers[node] != inStrip {
			t.Fatalf("node %d (x=%v): fail=%v recover=%v, want both %v",
				node, float64(node)*150, fails[node], recovers[node], inStrip)
		}
	}
	// An outage extending past the horizon schedules no Recover.
	m2, err := New("partition-heal", env, map[string]float64{"at_s": 110, "outage_s": 60, "region_frac": 1})
	if err != nil {
		t.Fatal(err)
	}
	events2, err := m2.Schedule(env, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events2 {
		if ev.Kind == Recover {
			t.Fatalf("recover at %v scheduled past the run horizon", ev.At)
		}
	}
}

func TestNormalizeCanonicalOrder(t *testing.T) {
	events := []Event{
		{At: 20, Node: 1, Kind: Recover},
		{At: 10, Node: 2, Kind: Fail},
		{At: 10, Node: 1, Kind: Leave},
		{At: 10, Node: 1, Kind: Join},
	}
	Normalize(events)
	want := []Event{
		{At: 10, Node: 1, Kind: Join},
		{At: 10, Node: 1, Kind: Leave},
		{At: 10, Node: 2, Kind: Fail},
		{At: 20, Node: 1, Kind: Recover},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("Normalize = %+v, want %+v", events, want)
	}
}

func TestCheckRejections(t *testing.T) {
	dur := 100 * sim.Second
	cases := []struct {
		name string
		ev   Event
	}{
		{"node below range", Event{At: 0, Node: -1, Kind: Join}},
		{"node above range", Event{At: 0, Node: 10, Kind: Join}},
		{"negative time", Event{At: -1, Node: 0, Kind: Join}},
		{"past horizon", Event{At: sim.Time(0).Add(dur).Add(1), Node: 0, Kind: Join}},
		{"unknown kind", Event{At: 0, Node: 0, Kind: EventKind(200)}},
	}
	for _, tc := range cases {
		if err := Check([]Event{tc.ev}, 10, dur); err == nil {
			t.Errorf("%s: Check accepted %+v", tc.name, tc.ev)
		}
	}
	ok := []Event{{At: sim.Time(0).Add(dur), Node: 9, Kind: Leave}}
	if err := Check(ok, 10, dur); err != nil {
		t.Errorf("Check rejected an event exactly at the horizon: %v", err)
	}
}

func TestInitialUpFirstEventWins(t *testing.T) {
	events := []Event{
		{At: 50, Node: 0, Kind: Fail},   // node 0: down later, starts up
		{At: 10, Node: 1, Kind: Join},   // node 1: first event brings it up -> starts down
		{At: 5, Node: 2, Kind: Recover}, // node 2: same, via Recover
		{At: 30, Node: 2, Kind: Fail},   // later events don't matter
	}
	up := InitialUp(events, 4)
	want := []bool{true, false, false, true}
	if !reflect.DeepEqual(up, want) {
		t.Fatalf("InitialUp = %v, want %v", up, want)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	env := testEnv(10, 60*sim.Second)
	if _, err := New("no-such-model", env, nil); err == nil {
		t.Error("unknown model name accepted")
	}
	if _, err := New("staggered-join", env, map[string]float64{"windw_s": 5}); err == nil {
		t.Error("misspelled parameter key accepted")
	}
	if _, err := New("flashcrowd", env, map[string]float64{"base_frac": 2}); err == nil {
		t.Error("flashcrowd base_frac=2 accepted")
	}
	if _, err := New("onoff-fail", env, map[string]float64{"mean_up_s": 0}); err == nil {
		t.Error("onoff-fail mean_up_s=0 accepted")
	}
	if _, err := New("partition-heal", env, map[string]float64{"region_frac": -0.1}); err == nil {
		t.Error("partition-heal region_frac=-0.1 accepted")
	}
}

func TestParamNames(t *testing.T) {
	cases := map[string][]string{
		"static":         nil,
		"staggered-join": {"start_s", "window_s"},
		"flashcrowd":     {"at_s", "base_frac", "window_s"},
		"onoff-fail":     {"mean_down_s", "mean_up_s"},
		"partition-heal": {"at_s", "outage_s", "region_frac"},
	}
	for name, want := range cases {
		got, err := Models.ParamNames(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Models.ParamNames(%s) = %v, want %v", name, got, want)
		}
	}
	if _, err := Models.ParamNames("no-such-model"); err == nil {
		t.Error("ParamNames accepted an unregistered name")
	}
}
