package mobility

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

func TestGroupMobilityStaysInArea(t *testing.T) {
	area := geo.Rect{W: 1000, H: 1000}
	m := GroupMobility{Area: area, Groups: 3, MinSpeed: 1, MaxSpeed: 10, Spread: 100}
	tracks, err := m.Generate(12, sim.Seconds(200), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 12 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	for id, tr := range tracks {
		for s := 0.0; s <= 200; s += 3.7 {
			if p := tr.At(sim.At(s)); area.Clamp(p) != p {
				t.Fatalf("member %d at %v outside area", id, p)
			}
		}
	}
}

func TestGroupMembersStayTogether(t *testing.T) {
	m := GroupMobility{Area: geo.Rect{W: 2000, H: 2000}, Groups: 2, MinSpeed: 5, MaxSpeed: 15, Spread: 80}
	tracks, err := m.Generate(8, sim.Seconds(300), sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0,2,4,6 form group 0; 1,3,5,7 group 1. Same-group members must
	// stay within ~4×Spread of each other (offsets are ±Spread around the
	// same centre, plus transition slack); different groups usually drift
	// far apart at least once.
	maxSame := 0.0
	for s := 10.0; s <= 300; s += 10 {
		at := sim.At(s)
		for _, pair := range [][2]int{{0, 2}, {2, 4}, {1, 3}, {3, 5}} {
			d := tracks[pair[0]].At(at).Dist(tracks[pair[1]].At(at))
			if d > maxSame {
				maxSame = d
			}
		}
	}
	if maxSame > 4*80 {
		t.Fatalf("same-group members separated by %.0f m", maxSame)
	}
}

func TestGroupMobilityValidation(t *testing.T) {
	bad := []GroupMobility{
		{Area: geo.Rect{W: 100, H: 100}, Groups: 0, Spread: 10},
		{Area: geo.Rect{W: 100, H: 100}, Groups: 1, Spread: 0},
		{Area: geo.Rect{W: 100, H: 100}, Groups: 1, Spread: 60}, // spread exceeds area
	}
	for i, m := range bad {
		if _, err := m.Generate(4, sim.Second, sim.NewRNG(1)); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGroupMobilityDeterminism(t *testing.T) {
	m := GroupMobility{Area: geo.Rect{W: 800, H: 800}, Groups: 2, MinSpeed: 1, MaxSpeed: 8, Spread: 60}
	a, _ := m.Generate(6, sim.Seconds(100), sim.NewRNG(9))
	b, _ := m.Generate(6, sim.Seconds(100), sim.NewRNG(9))
	for i := range a {
		for s := 0.0; s < 100; s += 11 {
			if a[i].At(sim.At(s)) != b[i].At(sim.At(s)) {
				t.Fatal("same seed diverged")
			}
		}
	}
}
