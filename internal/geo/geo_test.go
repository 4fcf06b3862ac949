package geo

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if p.Add(q) != Pt(5, 8) {
		t.Fatal("Add")
	}
	if !almostEq(p.Dist(q), 5) {
		t.Fatalf("Dist = %v", p.Dist(q))
	}
	if !almostEq(p.Dist2(q), 25) {
		t.Fatal("Dist2")
	}
	if s := Pt(1, 2).String(); s != "(1.00, 2.00)" {
		t.Fatalf("String = %q", s)
	}
}

func TestLerpEndpoints(t *testing.T) {
	// t=0 is an exact identity; t=1 holds to within a relative epsilon
	// (p + (q-p) may round for extreme magnitudes).
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := Pt(r.Float64()*2000-1000, r.Float64()*2000-1000)
		b := Pt(r.Float64()*2000-1000, r.Float64()*2000-1000)
		if a.Lerp(b, 0) != a {
			t.Fatalf("Lerp(0) != a for %v %v", a, b)
		}
		if e := a.Lerp(b, 1); e.Dist(b) > 1e-9 {
			t.Fatalf("Lerp(1) = %v, want %v", e, b)
		}
	}
}

func TestLerpMidpoint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Pt(r.Float64()*1000, r.Float64()*1000)
		b := Pt(r.Float64()*1000, r.Float64()*1000)
		m := a.Lerp(b, 0.5)
		if !almostEq(m.Dist(a), m.Dist(b)) {
			t.Fatalf("midpoint not equidistant: %v %v %v", a, b, m)
		}
	}
}

func TestRect(t *testing.T) {
	r := Rect{W: 100, H: 50}
	if r.Clamp(Pt(-5, 60)) != Pt(0, 50) {
		t.Fatal("Clamp")
	}
	if r.Clamp(Pt(40, 20)) != Pt(40, 20) {
		t.Fatal("Clamp of inner point must be identity")
	}
}

func BenchmarkGridWithin(b *testing.B) {
	g := NewFlatGrid(250)
	r := rand.New(rand.NewSource(1))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Pt(r.Float64()*1500, r.Float64()*300)
	}
	g.Rebuild(pts)
	buf := make([]int32, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.WithinSorted(Pt(750, 150), 250, -1, buf[:0])
	}
}
