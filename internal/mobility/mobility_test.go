package mobility

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

func TestTrackValidation(t *testing.T) {
	if _, err := NewTrack(nil); err == nil {
		t.Fatal("empty track accepted")
	}
	if _, err := NewTrack([]Segment{{Start: sim.At(1)}}); err == nil {
		t.Fatal("track not starting at 0 accepted")
	}
	if _, err := NewTrack([]Segment{{Start: 0}, {Start: sim.At(2)}, {Start: sim.At(1)}}); err == nil {
		t.Fatal("out-of-order track accepted")
	}
}

func TestStaticTrack(t *testing.T) {
	tr := Static(geo.Pt(10, 20))
	for _, at := range []sim.Time{0, sim.At(5), sim.At(1e6)} {
		if tr.At(at) != geo.Pt(10, 20) {
			t.Fatalf("static track moved at %v", at)
		}
	}
}

func TestTrackInterpolation(t *testing.T) {
	// Move from (0,0) to (100,0) at 10 m/s starting t=0, then pause.
	tr := MustTrack([]Segment{
		{Start: 0, From: geo.Pt(0, 0), To: geo.Pt(100, 0), Speed: 10},
		{Start: sim.At(10), From: geo.Pt(100, 0), To: geo.Pt(100, 0), Speed: 0},
	})
	cases := []struct {
		at   sim.Time
		want geo.Point
	}{
		{0, geo.Pt(0, 0)},
		{sim.At(5), geo.Pt(50, 0)},
		{sim.At(5.5), geo.Pt(55, 0)},
		{sim.At(10), geo.Pt(100, 0)},
		{sim.At(20), geo.Pt(100, 0)},
	}
	for _, c := range cases {
		got := tr.At(c.at)
		if got.Dist(c.want) > 1e-6 {
			t.Fatalf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if tr.At(sim.At(15)) != tr.At(sim.At(16)) {
		t.Fatal("moved during pause")
	}
}

func TestTrackArrivalBeforeNextSegment(t *testing.T) {
	// Segment says 10 m/s toward (50,0) but next segment only starts at
	// t=20: the node must sit at the destination in between.
	tr := MustTrack([]Segment{
		{Start: 0, From: geo.Pt(0, 0), To: geo.Pt(50, 0), Speed: 10},
		{Start: sim.At(20), From: geo.Pt(50, 0), To: geo.Pt(0, 0), Speed: 10},
	})
	if got := tr.At(sim.At(7)); got.Dist(geo.Pt(50, 0)) > 1e-6 {
		t.Fatalf("At(7) = %v, want parked at destination", got)
	}
	if tr.At(sim.At(7)) != tr.At(sim.At(19)) {
		t.Fatal("moved after arrival")
	}
}

func TestTrackMaxSpeed(t *testing.T) {
	tr := MustTrack([]Segment{
		{Start: 0, From: geo.Pt(0, 0), To: geo.Pt(100, 0), Speed: 5},
		{Start: sim.At(20), From: geo.Pt(100, 0), To: geo.Pt(0, 0), Speed: 12.5},
	})
	if got := tr.MaxSpeed(); got != 12.5 {
		t.Fatalf("MaxSpeed = %v", got)
	}
	static := Static(geo.Pt(1, 1))
	if got := static.MaxSpeed(); got != 0 {
		t.Fatalf("static MaxSpeed = %v", got)
	}
	if got := MaxTrackSpeed([]*Track{tr, static}); got != 12.5 {
		t.Fatalf("MaxTrackSpeed = %v", got)
	}
	if got := MaxTrackSpeed(nil); got != 0 {
		t.Fatalf("MaxTrackSpeed(nil) = %v", got)
	}
}

func TestRandomWaypointStaysInArea(t *testing.T) {
	area := geo.Rect{W: 1500, H: 300}
	m := RandomWaypoint{Area: area, MinSpeed: 1, MaxSpeed: 20, Pause: sim.Seconds(30)}
	rng := sim.NewRNG(1)
	tracks, err := m.Generate(40, sim.Seconds(900), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 40 {
		t.Fatalf("generated %d tracks", len(tracks))
	}
	for id, tr := range tracks {
		for s := 0.0; s <= 900; s += 7.3 {
			p := tr.At(sim.At(s))
			if area.Clamp(p) != p {
				t.Fatalf("node %d at %v outside area at t=%.1f", id, p, s)
			}
		}
	}
}

func TestRandomWaypointContinuity(t *testing.T) {
	m := RandomWaypoint{Area: geo.Rect{W: 1000, H: 1000}, MinSpeed: 1, MaxSpeed: 20, Pause: 0}
	tracks, err := m.Generate(10, sim.Seconds(300), sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Max displacement over dt must be bounded by MaxSpeed*dt (no jumps).
	const dt = 0.5
	for id, tr := range tracks {
		prev := tr.At(0)
		for s := dt; s <= 300; s += dt {
			cur := tr.At(sim.At(s))
			if d := cur.Dist(prev); d > 20*dt+1e-6 {
				t.Fatalf("node %d teleported %.2f m in %.1f s", id, d, dt)
			}
			prev = cur
		}
	}
}

func TestRandomWaypointPauseZeroKeepsMoving(t *testing.T) {
	m := RandomWaypoint{Area: geo.Rect{W: 500, H: 500}, MinSpeed: 5, MaxSpeed: 20, Pause: 0}
	tracks, err := m.Generate(5, sim.Seconds(120), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for id, tr := range tracks {
		moving := 0
		for s := 0.0; s < 120; s += 1 {
			if tr.At(sim.At(s)) != tr.At(sim.At(s+0.1)) {
				moving++
			}
		}
		// With no pause, nodes should be moving nearly all the time (brief
		// arrival instants aside).
		if moving < 100 {
			t.Fatalf("node %d moving only %d/120 samples with Pause=0", id, moving)
		}
	}
}

func TestRandomWaypointInfinitePause(t *testing.T) {
	// MaxSpeed 0 means static regardless of pause.
	m := RandomWaypoint{Area: geo.Rect{W: 100, H: 100}, MinSpeed: 0, MaxSpeed: 0, Pause: sim.Seconds(1)}
	tracks, err := m.Generate(3, sim.Seconds(60), sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range tracks {
		if tr.At(0) != tr.At(sim.At(60)) {
			t.Fatal("MaxSpeed=0 node moved")
		}
	}
}

func TestRandomWaypointDeterminism(t *testing.T) {
	m := RandomWaypoint{Area: geo.Rect{W: 1500, H: 300}, MinSpeed: 1, MaxSpeed: 20, Pause: sim.Seconds(10)}
	a, _ := m.Generate(10, sim.Seconds(200), sim.NewRNG(7))
	b, _ := m.Generate(10, sim.Seconds(200), sim.NewRNG(7))
	for i := range a {
		for s := 0.0; s < 200; s += 13 {
			if a[i].At(sim.At(s)) != b[i].At(sim.At(s)) {
				t.Fatal("same seed produced different tracks")
			}
		}
	}
}

func TestRandomWaypointRejectsBadConfig(t *testing.T) {
	bad := []RandomWaypoint{
		{Area: geo.Rect{W: 100, H: 100}, MinSpeed: 10, MaxSpeed: 5},
		{Area: geo.Rect{W: 100, H: 100}, MinSpeed: -1, MaxSpeed: 5},
		{Area: geo.Rect{W: 0, H: 100}, MinSpeed: 1, MaxSpeed: 5},
	}
	for i, m := range bad {
		if _, err := m.Generate(1, sim.Second, sim.NewRNG(1)); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestRandomWalkStaysInArea(t *testing.T) {
	area := geo.Rect{W: 400, H: 400}
	m := RandomWalk{Area: area, MinSpeed: 1, MaxSpeed: 10, Step: sim.Seconds(5)}
	tracks, err := m.Generate(10, sim.Seconds(300), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for id, tr := range tracks {
		for s := 0.0; s <= 300; s += 2.1 {
			if p := tr.At(sim.At(s)); area.Clamp(p) != p {
				t.Fatalf("walker %d at %v outside area", id, p)
			}
		}
	}
}

func TestRandomWalkRejectsBadStep(t *testing.T) {
	m := RandomWalk{Area: geo.Rect{W: 10, H: 10}, MaxSpeed: 1}
	if _, err := m.Generate(1, sim.Second, sim.NewRNG(1)); err == nil {
		t.Fatal("zero Step accepted")
	}
}

func TestStaticGridLayout(t *testing.T) {
	m := StaticGrid{Area: geo.Rect{W: 1000, H: 1000}}
	tracks, err := m.Generate(16, 0, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 16 {
		t.Fatalf("got %d tracks", len(tracks))
	}
	seen := map[geo.Point]bool{}
	for _, tr := range tracks {
		p := tr.At(0)
		if seen[p] {
			t.Fatalf("duplicate grid position %v", p)
		}
		seen[p] = true
		if m.Area.Clamp(p) != p {
			t.Fatalf("grid point %v outside area", p)
		}
	}
}

func TestChainSpacing(t *testing.T) {
	tracks := Chain(5, 200)
	for i, tr := range tracks {
		want := geo.Pt(float64(i)*200, 0)
		if tr.At(sim.At(42)) != want {
			t.Fatalf("chain node %d at %v, want %v", i, tr.At(0), want)
		}
	}
}
