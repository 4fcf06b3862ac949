package mobility

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

func testEnv() Env {
	return Env{Area: geo.Rect{W: 1500, H: 300}, MinSpeed: 1, MaxSpeed: 20, Pause: 0}
}

// TestRegistryDeterminism: every registered model, built twice through the
// registry and driven by fresh same-seed RNGs, must emit identical tracks —
// the cross-process determinism contract scenario compilation relies on.
func TestRegistryDeterminism(t *testing.T) {
	for _, name := range Models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen := func() []*Track {
				m, err := New(name, testEnv(), nil)
				if err != nil {
					t.Fatal(err)
				}
				tracks, err := m.Generate(12, 120*sim.Second, sim.NewRNG(99).ForkNamed("mobility"))
				if err != nil {
					t.Fatal(err)
				}
				return tracks
			}
			a, b := gen(), gen()
			if len(a) != 12 {
				t.Fatalf("tracks = %d", len(a))
			}
			for i := range a {
				if !reflect.DeepEqual(a[i].segs, b[i].segs) {
					t.Fatalf("track %d differs between builds", i)
				}
			}
		})
	}
}

// TestModelsRespectSpeedBound: generated tracks must never exceed the
// environment's MaxSpeed — MaxTrackSpeed is the bound the spatial-index
// transmit path pads its neighbourhood queries with, so a faster segment
// would silently corrupt reception.
func TestModelsRespectSpeedBound(t *testing.T) {
	env := testEnv()
	for _, name := range Models.Names() {
		if name == "rpgm" {
			// RPGM member speed is centre speed plus offset-resampling
			// jitter and legitimately exceeds the centre bound; its tracks
			// still carry true per-segment speeds, which is all
			// MaxTrackSpeed soundness needs.
			continue
		}
		m, err := New(name, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracks, err := m.Generate(10, 200*sim.Second, sim.NewRNG(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := MaxTrackSpeed(tracks); v > env.MaxSpeed+1e-9 {
			t.Fatalf("%s: MaxTrackSpeed %.3f exceeds MaxSpeed %.0f", name, v, env.MaxSpeed)
		}
	}
}

// TestModelsStayInArea samples every registered model's tracks over time and
// requires all positions to stay inside the scenario rectangle.
func TestModelsStayInArea(t *testing.T) {
	env := testEnv()
	for _, name := range Models.Names() {
		m, err := New(name, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracks, err := m.Generate(8, 150*sim.Second, sim.NewRNG(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, tr := range tracks {
			for ts := 0.0; ts <= 150; ts += 3 {
				p := tr.At(sim.At(ts))
				if p.X < -1e-6 || p.X > env.Area.W+1e-6 || p.Y < -1e-6 || p.Y > env.Area.H+1e-6 {
					t.Fatalf("%s: track %d left the area at t=%.0f: %v", name, i, ts, p)
				}
			}
		}
	}
}

// TestModelsActuallyMove guards against degenerate parameterizations: under
// the default mobile environment every non-static model must displace nodes.
func TestModelsActuallyMove(t *testing.T) {
	env := testEnv()
	for _, name := range Models.Names() {
		if name == "static-grid" {
			continue
		}
		m, err := New(name, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracks, err := m.Generate(6, 120*sim.Second, sim.NewRNG(11))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		moved := 0
		for _, tr := range tracks {
			if tr.At(0).Dist(tr.At(sim.At(120))) > 1 || tr.MaxSpeed() > 0 {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no node moved", name)
		}
	}
}

func TestGaussMarkovAlphaExtremes(t *testing.T) {
	for _, alpha := range []float64{0, 0.95} {
		m, err := New("gauss-markov", testEnv(), map[string]float64{"alpha": alpha})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Generate(4, 60*sim.Second, sim.NewRNG(1)); err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
	}
	// Out-of-range alpha must be rejected no later than Generate.
	if m, err := New("gauss-markov", testEnv(), map[string]float64{"alpha": 1.5}); err == nil {
		if _, err := m.Generate(2, sim.Second, sim.NewRNG(1)); err == nil {
			t.Fatal("alpha=1.5 accepted")
		}
	}
}

func TestManhattanSnapsToStreets(t *testing.T) {
	m, err := New("manhattan", testEnv(), map[string]float64{"blocks_x": 3, "blocks_y": 2})
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := m.Generate(5, 90*sim.Second, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	onStreet := func(v float64, side float64, blocks int) bool {
		spacing := side / float64(blocks)
		k := v / spacing
		return k-float64(int(k+0.5)) < eps && k-float64(int(k+0.5)) > -eps
	}
	for i, tr := range tracks {
		for _, s := range tr.segs {
			// Every leg runs along one street: endpoints share a street
			// coordinate on at least one axis.
			horiz := onStreet(s.From.Y, 300, 2) && s.From.Y == s.To.Y
			vert := onStreet(s.From.X, 1500, 3) && s.From.X == s.To.X
			if !horiz && !vert {
				t.Fatalf("track %d segment off-street: %+v", i, s)
			}
		}
	}
}

// TestManhattanTurnAllocatesNothing pins chooseDir's candidate list on the
// stack: a turn at a crossing, a corner and a dead end cost no allocation.
func TestManhattanTurnAllocatesNothing(t *testing.T) {
	m := Manhattan{BlocksX: 3, BlocksY: 2}
	rng := sim.NewRNG(1)
	if n := testing.AllocsPerRun(100, func() {
		m.chooseDir(1, 1, 0, true, rng)
		m.chooseDir(0, 0, -1, false, rng)
		m.chooseDir(3, 1, 0, false, rng)
	}); n != 0 {
		t.Fatalf("chooseDir made %v allocations, want 0", n)
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("no-such-model", testEnv(), nil); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New("gauss-markov", testEnv(), map[string]float64{"alfa": 0.5}); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
}

// TestDefaultModelMatchesExplicitWaypoint: the empty model name and
// "waypoint" with no parameters must generate identical tracks — the
// bit-identity bridge from the pre-registry scenario layer.
func TestDefaultModelMatchesExplicitWaypoint(t *testing.T) {
	gen := func(name string) []*Track {
		m, err := New(name, testEnv(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tracks, err := m.Generate(10, 100*sim.Second, sim.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		return tracks
	}
	a, b := gen(""), gen("waypoint")
	for i := range a {
		if !reflect.DeepEqual(a[i].segs, b[i].segs) {
			t.Fatalf("track %d differs", i)
		}
	}
	// And the registry-built waypoint must equal the directly-constructed
	// struct the old scenario layer used.
	env := testEnv()
	direct := RandomWaypoint{Area: env.Area, MinSpeed: env.MinSpeed, MaxSpeed: env.MaxSpeed, Pause: env.Pause}
	c, err := direct.Generate(10, 100*sim.Second, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].segs, c[i].segs) {
			t.Fatalf("registry waypoint diverges from direct construction at track %d", i)
		}
	}
}

// TestCheckRejectsNaN: GaussMarkov and Manhattan built directly, with NaN
// in any one float field, fail Generate. NaN fails no comparison, so a
// bound written as x < lo || x > hi lets it through.
func TestCheckRejectsNaN(t *testing.T) {
	nan := math.NaN()
	area := geo.Rect{W: 1500, H: 300}
	gm := func(set func(*GaussMarkov)) Model {
		m := GaussMarkov{Area: area, MinSpeed: 1, MaxSpeed: 20, MeanSpeed: 10, Alpha: 0.75, SigmaSpeed: 1, SigmaDir: 0.5}
		set(&m)
		return m
	}
	mh := func(set func(*Manhattan)) Model {
		m := Manhattan{Area: area, MinSpeed: 1, MaxSpeed: 20, TurnProb: 0.5}
		set(&m)
		return m
	}
	for _, tc := range []struct {
		name string
		m    Model
	}{
		{"gauss-markov valid", gm(func(*GaussMarkov) {})},
		{"gauss-markov Area.W", gm(func(m *GaussMarkov) { m.Area.W = nan })},
		{"gauss-markov Area.H", gm(func(m *GaussMarkov) { m.Area.H = nan })},
		{"gauss-markov MinSpeed", gm(func(m *GaussMarkov) { m.MinSpeed = nan })},
		{"gauss-markov MaxSpeed", gm(func(m *GaussMarkov) { m.MaxSpeed = nan })},
		{"gauss-markov MeanSpeed", gm(func(m *GaussMarkov) { m.MeanSpeed = nan })},
		{"gauss-markov Alpha", gm(func(m *GaussMarkov) { m.Alpha = nan })},
		{"gauss-markov SigmaSpeed", gm(func(m *GaussMarkov) { m.SigmaSpeed = nan })},
		{"gauss-markov SigmaDir", gm(func(m *GaussMarkov) { m.SigmaDir = nan })},
		{"gauss-markov Margin", gm(func(m *GaussMarkov) { m.Margin = nan })},
		{"manhattan valid", mh(func(*Manhattan) {})},
		{"manhattan Area.W", mh(func(m *Manhattan) { m.Area.W = nan })},
		{"manhattan Area.H", mh(func(m *Manhattan) { m.Area.H = nan })},
		{"manhattan MinSpeed", mh(func(m *Manhattan) { m.MinSpeed = nan })},
		{"manhattan MaxSpeed", mh(func(m *Manhattan) { m.MaxSpeed = nan })},
		{"manhattan TurnProb", mh(func(m *Manhattan) { m.TurnProb = nan })},
	} {
		_, err := tc.m.Generate(3, 10*sim.Second, sim.NewRNG(1))
		if valid := strings.HasSuffix(tc.name, "valid"); valid != (err == nil) {
			t.Errorf("%s: Generate error = %v", tc.name, err)
		}
	}
}
