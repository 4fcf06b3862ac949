package geo

import (
	"math/rand"
	"testing"
)

// bruteWithin is the reference O(N) neighbourhood query.
func bruteWithin(pts []Point, center Point, r float64, exclude int32) []int32 {
	var out []int32
	for i, p := range pts {
		if int32(i) == exclude {
			continue
		}
		if p.Dist2(center) <= r*r {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestFlatGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*1000-100, rng.Float64()*600-100)
		}
		cell := 50 + rng.Float64()*300
		g := NewFlatGrid(cell)
		g.Rebuild(pts)
		if g.Len() != n {
			t.Fatalf("Len = %d, want %d", g.Len(), n)
		}
		for q := 0; q < 10; q++ {
			center := Pt(rng.Float64()*1200-200, rng.Float64()*800-200)
			r := rng.Float64() * 400
			exclude := int32(rng.Intn(n))
			got := g.WithinSorted(center, r, exclude, nil)
			want := bruteWithin(pts, center, r, exclude)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: got %v, want %v (order)", trial, got, want)
				}
			}
		}
	}
}

func TestFlatGridRebuildReuses(t *testing.T) {
	g := NewFlatGrid(100)
	pts := []Point{Pt(0, 0), Pt(50, 50), Pt(500, 500)}
	g.Rebuild(pts)
	if got := g.WithinSorted(Pt(0, 0), 80, -1, nil); len(got) != 2 {
		t.Fatalf("first build: %v", got)
	}
	// Rebuild with moved points: old contents must be gone.
	pts[0], pts[1], pts[2] = Pt(500, 500), Pt(510, 510), Pt(0, 0)
	g.Rebuild(pts)
	got := g.WithinSorted(Pt(505, 505), 20, -1, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("after rebuild: %v", got)
	}
}

func TestFlatGridEmpty(t *testing.T) {
	g := NewFlatGrid(100)
	g.Rebuild(nil)
	if g.Len() != 0 {
		t.Fatal("empty grid has items")
	}
	if got := g.WithinSorted(Pt(0, 0), 100, -1, nil); got != nil {
		t.Fatalf("query on empty grid: %v", got)
	}
}
