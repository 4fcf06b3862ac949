// Package geo provides 2-D geometry primitives and a uniform spatial hash
// grid used by the radio channel for O(1)-neighbourhood queries.
package geo

import (
	"fmt"
	"math"
)

// Point is a position (or vector) in the plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared distance between p and q (cheaper than Dist).
func (p Point) Dist2(q Point) float64 {
	// Each product is rounded by float64(…) before the sum, so no CPU fuses
	// them into one multiply-add: results do not depend on the architecture.
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Lerp returns the point a fraction t of the way from p to q.
// t=0 yields p, t=1 yields q; t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + float64((q.X-p.X)*t), p.Y + float64((q.Y-p.Y)*t)}
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle anchored at the origin: the simulation
// area [0,W]×[0,H].
type Rect struct {
	W, H float64
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{math.Min(math.Max(p.X, 0), r.W), math.Min(math.Max(p.Y, 0), r.H)}
}
