package mobility

import (
	"fmt"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// RandomWaypoint is the classic model of Broch et al. 1998: each node starts
// at a uniform random position, waits Pause seconds, picks a uniform random
// destination and a uniform random speed in [MinSpeed, MaxSpeed], travels
// there in a straight line, and repeats.
type RandomWaypoint struct {
	Area     geo.Rect
	MinSpeed float64 // m/s; CMU setdest uses >0 to avoid the speed-decay pathology
	MaxSpeed float64 // m/s
	Pause    sim.Duration
}

// Generate produces n tracks covering [0, horizon].
func (m RandomWaypoint) Generate(n int, horizon sim.Duration, rng *sim.RNG) ([]*Track, error) {
	if m.MaxSpeed < m.MinSpeed || m.MinSpeed < 0 {
		return nil, fmt.Errorf("mobility: bad speed range [%v,%v]", m.MinSpeed, m.MaxSpeed)
	}
	if m.Area.W <= 0 || m.Area.H <= 0 {
		return nil, fmt.Errorf("mobility: degenerate area %+v", m.Area)
	}
	tracks := make([]*Track, n)
	for i := 0; i < n; i++ {
		tracks[i] = m.generateOne(horizon, rng)
	}
	return tracks, nil
}

func (m RandomWaypoint) randPoint(rng *sim.RNG) geo.Point {
	return geo.Pt(rng.Uniform(0, m.Area.W), rng.Uniform(0, m.Area.H))
}

func (m RandomWaypoint) generateOne(horizon sim.Duration, rng *sim.RNG) *Track {
	var segs []Segment
	pos := m.randPoint(rng)
	t := sim.Time(0)
	end := sim.Time(0).Add(horizon)
	for t <= end {
		// Pause phase (also models MaxSpeed==0 as "static forever").
		if m.Pause > 0 || m.MaxSpeed == 0 {
			segs = append(segs, Segment{Start: t, From: pos, To: pos, Speed: 0})
			if m.MaxSpeed == 0 {
				break
			}
			t = t.Add(m.Pause)
			if t > end {
				break
			}
		}
		dst := m.randPoint(rng)
		speed := rng.Uniform(m.MinSpeed, m.MaxSpeed)
		if speed <= 0 {
			speed = m.MaxSpeed // MinSpeed==MaxSpeed==v>0 or guard against 0
		}
		if speed == 0 {
			break
		}
		segs = append(segs, Segment{Start: t, From: pos, To: dst, Speed: speed})
		travel := sim.Seconds(pos.Dist(dst) / speed)
		if travel <= 0 {
			travel = sim.Microsecond
		}
		t = t.Add(travel)
		pos = dst
	}
	if len(segs) == 0 {
		segs = append(segs, Segment{Start: 0, From: pos, To: pos, Speed: 0})
	}
	return MustTrack(segs)
}

// RandomWalk is a simple alternative model: each node repeatedly picks a
// uniform random direction and walks for Step seconds at a uniform speed,
// reflecting off the area boundary. Useful for sensitivity studies.
type RandomWalk struct {
	Area     geo.Rect
	MinSpeed float64
	MaxSpeed float64
	Step     sim.Duration // duration of each leg
}

// Generate produces n random-walk tracks covering [0, horizon].
func (m RandomWalk) Generate(n int, horizon sim.Duration, rng *sim.RNG) ([]*Track, error) {
	if m.Step <= 0 {
		return nil, fmt.Errorf("mobility: RandomWalk.Step must be positive")
	}
	if m.MaxSpeed < m.MinSpeed || m.MinSpeed < 0 {
		return nil, fmt.Errorf("mobility: bad speed range [%v,%v]", m.MinSpeed, m.MaxSpeed)
	}
	tracks := make([]*Track, n)
	for i := 0; i < n; i++ {
		tracks[i] = m.generateOne(horizon, rng)
	}
	return tracks, nil
}

func (m RandomWalk) generateOne(horizon sim.Duration, rng *sim.RNG) *Track {
	var segs []Segment
	pos := geo.Pt(rng.Uniform(0, m.Area.W), rng.Uniform(0, m.Area.H))
	t := sim.Time(0)
	end := sim.Time(0).Add(horizon)
	for t <= end {
		speed := rng.Uniform(m.MinSpeed, m.MaxSpeed)
		if speed == 0 {
			segs = append(segs, Segment{Start: t, From: pos, To: pos, Speed: 0})
			t = t.Add(m.Step)
			continue
		}
		// Pick a direction; clip the leg at the boundary by clamping the
		// endpoint (a cheap approximation of reflection that keeps nodes
		// inside the area).
		ang := rng.Uniform(0, 2*3.141592653589793)
		distance := speed * m.Step.Seconds()
		// float64(x*y) rounds the product, so no CPU fuses it into the sum.
		raw := geo.Pt(pos.X+float64(distance*cos(ang)), pos.Y+float64(distance*sin(ang)))
		dst := m.Area.Clamp(raw)
		segs = append(segs, Segment{Start: t, From: pos, To: dst, Speed: speed})
		actual := pos.Dist(dst)
		if actual == 0 {
			t = t.Add(m.Step)
			continue
		}
		t = t.Add(sim.Seconds(actual / speed))
		pos = dst
	}
	if len(segs) == 0 {
		segs = append(segs, Segment{Start: 0, From: pos, To: pos, Speed: 0})
	}
	return MustTrack(segs)
}
