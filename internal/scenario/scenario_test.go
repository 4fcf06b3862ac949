package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/topo"
	"adhocsim/internal/traffic"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationCatchesBadSpecs(t *testing.T) {
	mk := func(mut func(*Spec)) Spec {
		s := Default()
		mut(&s)
		return s
	}
	bad := []Spec{
		mk(func(s *Spec) { s.Nodes = 1 }),
		mk(func(s *Spec) { s.Area = geo.Rect{} }),
		mk(func(s *Spec) { s.Duration = 0 }),
		mk(func(s *Spec) { s.Sources = 0 }),
		mk(func(s *Spec) { s.Nodes = 3; s.Sources = 100 }),
		mk(func(s *Spec) { s.Rate = 0 }),
		mk(func(s *Spec) { s.Rate = -4 }),
		mk(func(s *Spec) { s.PayloadBytes = 0 }),
		mk(func(s *Spec) { s.MinSpeed = 30 }),
		mk(func(s *Spec) { s.MaxSpeed = -1; s.MinSpeed = -2 }),
		mk(func(s *Spec) { s.Pause = -sim.Second }),
		mk(func(s *Spec) { s.StartMin = 2 * sim.Second; s.StartMax = sim.Second }),
		mk(func(s *Spec) { s.StartMin = -sim.Second; s.StartMax = sim.Second }),
		mk(func(s *Spec) { s.Mobility = MobilitySpec{Name: "teleport"} }),
		mk(func(s *Spec) {
			s.Mobility = MobilitySpec{Name: "gauss-markov", Params: map[string]float64{"alfa": 0.5}}
		}),
		// Out-of-range parameter values must fail eagerly at Validate, not
		// mid-campaign at the first Generate.
		mk(func(s *Spec) {
			s.Mobility = MobilitySpec{Name: "gauss-markov", Params: map[string]float64{"alpha": 1.5}}
		}),
		mk(func(s *Spec) {
			s.Mobility = MobilitySpec{Name: "manhattan", Params: map[string]float64{"turn_prob": 2}}
		}),
		mk(func(s *Spec) {
			s.Mobility = MobilitySpec{Name: "waypoint", Params: map[string]float64{"min_speed_mps": 50}}
		}),
		mk(func(s *Spec) { s.Traffic = TrafficSpec{Name: "warp"} }),
		mk(func(s *Spec) { s.Traffic = TrafficSpec{Name: "expoo", Params: map[string]float64{"on_s": -1}} }),
		mk(func(s *Spec) { s.Radio = RadioSpec{Name: "warpdrive"} }),
		mk(func(s *Spec) { s.Radio = RadioSpec{Name: "shadowing", Params: map[string]float64{"sigma": 4}} }),
		// The capture-ratio ≤ 1 condition that used to panic inside the
		// channel constructor must now fail spec validation.
		mk(func(s *Spec) { s.Radio = RadioSpec{Params: map[string]float64{"capture_ratio": 1}} }),
		mk(func(s *Spec) { s.Radio = RadioSpec{Name: "pathloss", Params: map[string]float64{"exponent": -2}} }),
		// A carrier-sense range below the reception range inverts the
		// thresholds.
		mk(func(s *Spec) { s.TxRange = 300; s.CSRange = 200 }),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
		if _, err := s.Generate(1); err == nil {
			t.Fatalf("bad spec %d generated", i)
		}
	}
}

// TestValidationRejectsNonFinite: a NaN or infinite scalar field fails
// Validate and Generate with an error naming the field, where NaN passed
// every bound and an infinite speed hung track generation.
func TestValidationRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Spec, float64){
		"Area.W":   func(s *Spec, v float64) { s.Area.W = v },
		"Area.H":   func(s *Spec, v float64) { s.Area.H = v },
		"MinSpeed": func(s *Spec, v float64) { s.MinSpeed = v },
		"MaxSpeed": func(s *Spec, v float64) { s.MaxSpeed = v },
		"Rate":     func(s *Spec, v float64) { s.Rate = v },
		"TxRange":  func(s *Spec, v float64) { s.TxRange = v },
		"CSRange":  func(s *Spec, v float64) { s.CSRange = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Default()
			s.Duration = 10 * sim.Second
			set(&s, v)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), name+" is ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", name, v, err)
			}
			if _, err := s.Generate(1); err == nil || !strings.Contains(err.Error(), name+" is ") {
				t.Errorf("%s = %v: Generate() = %v, want an error naming the field", name, v, err)
			}
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	s := Default()
	s.Duration = 100 * sim.Second
	inst, err := s.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Tracks) != s.Nodes {
		t.Fatalf("tracks = %d", len(inst.Tracks))
	}
	if len(inst.Connections) != s.Sources {
		t.Fatalf("connections = %d", len(inst.Connections))
	}
	seen := map[[2]int32]bool{}
	for _, c := range inst.Connections {
		if c.Src == c.Dst {
			t.Fatal("self-loop connection")
		}
		k := [2]int32{int32(c.Src), int32(c.Dst)}
		if seen[k] {
			t.Fatal("duplicate connection pair")
		}
		seen[k] = true
		if c.Start < sim.Time(0).Add(s.StartMin) || c.Start > sim.Time(0).Add(s.StartMax)+1 {
			t.Fatalf("start %v outside window", c.Start)
		}
	}
	// Default radio: exactly the CMU 250 m parameters.
	if r := inst.Radio.RxRange(); r < 249 || r > 251 {
		t.Fatalf("radio range = %f", r)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := Default()
	s.Duration = 60 * sim.Second
	a, _ := s.Generate(5)
	b, _ := s.Generate(5)
	for i := range a.Tracks {
		for ts := 0.0; ts < 60; ts += 9 {
			if a.Tracks[i].At(sim.At(ts)) != b.Tracks[i].At(sim.At(ts)) {
				t.Fatal("same seed, different mobility")
			}
		}
	}
	for i := range a.Connections {
		if a.Connections[i] != b.Connections[i] {
			t.Fatal("same seed, different connections")
		}
	}
	c, _ := s.Generate(6)
	if a.Tracks[0].At(sim.At(9)) == c.Tracks[0].At(sim.At(9)) &&
		a.Tracks[1].At(sim.At(9)) == c.Tracks[1].At(sim.At(9)) {
		t.Fatal("different seeds produced identical mobility")
	}
}

func TestCustomRange(t *testing.T) {
	s := Default()
	s.TxRange = 100
	inst, err := s.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if r := inst.Radio.RxRange(); r < 99 || r > 101 {
		t.Fatalf("custom range = %f", r)
	}
	if cs := inst.Radio.CSRange(); cs < 215 || cs > 225 {
		t.Fatalf("default CS scaling = %f, want ~220", cs)
	}
}

func TestStaticSpec(t *testing.T) {
	s := Default()
	s.MaxSpeed, s.MinSpeed = 0, 0
	s.Duration = 30 * sim.Second
	inst, err := s.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range inst.Tracks {
		if tr.At(0) != tr.At(sim.At(30)) {
			t.Fatal("static scenario moved")
		}
	}
}

// TestScenarioConnectivitySanity documents that the default 40-node strip is
// usually connected — the premise of the study's traffic patterns.
func TestScenarioConnectivitySanity(t *testing.T) {
	s := Default()
	s.Duration = 60 * sim.Second
	inst, err := s.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	connectedSamples := 0
	const samples = 12
	for i := 0; i < samples; i++ {
		g := topo.Snapshot(inst.Tracks, sim.At(float64(i)*5), 250)
		if g.Connected() {
			connectedSamples++
		}
	}
	if connectedSamples < samples/2 {
		t.Fatalf("default scenario mostly partitioned: %d/%d connected", connectedSamples, samples)
	}
}

func TestModelOverride(t *testing.T) {
	s := Default()
	s.Nodes = 8
	s.Duration = 30 * sim.Second
	s.MinSpeed, s.MaxSpeed = 1, 5
	s.Mobility = MobilitySpec{Name: "rpgm", Params: map[string]float64{"groups": 2, "spread_m": 80}}
	inst, err := s.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Tracks) != 8 {
		t.Fatalf("tracks = %d", len(inst.Tracks))
	}
	// Group members (round-robin: 0,2,4,6 vs 1,3,5,7) stay together.
	d02 := inst.Tracks[0].At(sim.At(15)).Dist(inst.Tracks[2].At(sim.At(15)))
	if d02 > 4*80 {
		t.Fatalf("group members %f m apart", d02)
	}
}

// TestNamedDefaultsMatchZeroValue: spelling out the default models must
// compile to the identical instance as the zero-valued spec — the parity
// bridge between the registry surface and the study configuration.
func TestNamedDefaultsMatchZeroValue(t *testing.T) {
	base := Default()
	base.Duration = 60 * sim.Second
	named := base
	named.Mobility = MobilitySpec{Name: "waypoint"}
	named.Traffic = TrafficSpec{Name: "cbr"}
	a, err := base.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := named.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Connections, b.Connections) {
		t.Fatal("named cbr produced different connections")
	}
	for i := range a.Tracks {
		if !reflect.DeepEqual(a.Tracks[i], b.Tracks[i]) {
			t.Fatalf("named waypoint produced a different track %d", i)
		}
	}
}

// TestNamedRadioDefaultMatchesZeroValue: spelling out the default radio
// model (and the explicit-range path) must compile to the identical
// parameters as the zero-valued spec — the radio half of the registry
// parity bridge.
func TestNamedRadioDefaultMatchesZeroValue(t *testing.T) {
	base := Default()
	base.Duration = 30 * sim.Second
	named := base
	named.Radio = RadioSpec{Name: "tworay"}
	a, err := base.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := named.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Radio, b.Radio) {
		t.Fatalf("named tworay = %+v, zero value = %+v", b.Radio, a.Radio)
	}
	ranged := base
	ranged.TxRange = 175
	named.TxRange = 175
	a, err = ranged.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err = named.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Radio, b.Radio) {
		t.Fatal("named tworay diverges from zero value at a custom range")
	}
}

// TestRadioModelThreadsRunSeed: stochastic radio models must derive their
// per-link field from the run seed — same seed, same powers; different
// seed, different field — through the scenario layer end to end.
func TestRadioModelThreadsRunSeed(t *testing.T) {
	s := Default()
	s.Duration = 30 * sim.Second
	s.Radio = RadioSpec{Name: "shadowing"}
	gen := func(seed int64) phy.LinkPropagation {
		inst, err := s.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		lp, ok := inst.Radio.Prop.(phy.LinkPropagation)
		if !ok {
			t.Fatal("shadowing lost its link propagation through Generate")
		}
		return lp
	}
	a, b, c := gen(5), gen(5), gen(6)
	tx := phy.DefaultParams().TxPower
	diff := 0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			pa := a.LinkRxPower(tx, 200, pkt.NodeID(i), pkt.NodeID(j), 1)
			if pa != b.LinkRxPower(tx, 200, pkt.NodeID(i), pkt.NodeID(j), 1) {
				t.Fatalf("link %d-%d: same run seed, different shadowing", i, j)
			}
			if pa != c.LinkRxPower(tx, 200, pkt.NodeID(i), pkt.NodeID(j), 1) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("run seed does not shape the shadowing field")
	}
}

// TestNewModelsGenerateDeterministically covers every mobility × traffic
// model combination through the scenario layer: same seed ⇒ DeepEqual
// tracks and connections (the registry analogue of TestGenerateDeterministic),
// different seed ⇒ different mobility.
func TestNewModelsGenerateDeterministically(t *testing.T) {
	for _, mob := range mobility.Models.Names() {
		for _, tra := range traffic.Models.Names() {
			mob, tra := mob, tra
			t.Run(mob+"/"+tra, func(t *testing.T) {
				t.Parallel()
				s := Default()
				s.Nodes = 12
				s.Sources = 4
				s.Duration = 45 * sim.Second
				s.Mobility = MobilitySpec{Name: mob}
				s.Traffic = TrafficSpec{Name: tra}
				a, err := s.Generate(21)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s.Generate(21)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Connections, b.Connections) {
					t.Fatal("same seed, different connections")
				}
				for i := range a.Tracks {
					if !reflect.DeepEqual(a.Tracks[i], b.Tracks[i]) {
						t.Fatalf("same seed, different track %d", i)
					}
				}
				if mob == "static-grid" {
					return // placement ignores the seed by design (jitter only)
				}
				c, err := s.Generate(22)
				if err != nil {
					t.Fatal(err)
				}
				same := 0
				for i := range a.Tracks {
					if reflect.DeepEqual(a.Tracks[i], c.Tracks[i]) {
						same++
					}
				}
				if same == len(a.Tracks) {
					t.Fatal("different seeds produced identical mobility")
				}
			})
		}
	}
}
