package mobility

import (
	"fmt"
	"math"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// GaussMarkov is the Gauss-Markov mobility model (Liang & Haas; the
// temporally-correlated model of the Camp et al. survey): each node carries a
// speed and a direction that evolve as first-order autoregressive processes,
//
//	s(t) = α·s(t−1) + (1−α)·s̄ + √(1−α²)·σs·N(0,1)
//	d(t) = α·d(t−1) + (1−α)·d̄ + √(1−α²)·σd·N(0,1)
//
// sampled every Tick. α=0 degenerates to a memoryless random walk, α→1 to
// near-linear motion. Near an area edge the mean direction d̄ is steered
// toward the area centre (the standard edge-avoidance rule), and positions
// are clamped to the area as a final guard.
//
// Speeds are clamped to [MinSpeed, MaxSpeed], so generated tracks respect
// the spec's speed bound: Track.MaxSpeed (and hence MaxTrackSpeed, the
// bound the spatial-index transmit path pads its queries with) never
// exceeds MaxSpeed.
type GaussMarkov struct {
	Area      geo.Rect
	MinSpeed  float64 // m/s, clamp floor (≥ 0)
	MaxSpeed  float64 // m/s, hard clamp; the MaxTrackSpeed bound
	MeanSpeed float64 // s̄, the asymptotic mean speed
	// Alpha is the memory parameter in [0,1).
	Alpha float64
	// SigmaSpeed / SigmaDir are the process noise scales (m/s, radians).
	SigmaSpeed float64
	SigmaDir   float64
	// Tick is the resampling interval (default 1 s).
	Tick sim.Duration
	// Margin is the edge-avoidance band in metres; inside it the mean
	// direction points at the area centre. 0 selects 10% of the shorter
	// area side.
	Margin float64
}

// check reports configuration errors. The registry builder calls it too,
// so a bad parameterization fails at Spec.Validate / campaign-submission
// time instead of mid-campaign.
func (m GaussMarkov) check() error {
	// Each bound is written so that NaN, which fails every comparison,
	// fails it.
	if !(m.Area.W > 0 && m.Area.H > 0) || math.IsInf(m.Area.W, 0) || math.IsInf(m.Area.H, 0) {
		return fmt.Errorf("mobility: degenerate area %+v", m.Area)
	}
	if !(m.MinSpeed >= 0 && m.MinSpeed <= m.MaxSpeed) || math.IsInf(m.MaxSpeed, 0) {
		return fmt.Errorf("mobility: bad speed range [%v,%v]", m.MinSpeed, m.MaxSpeed)
	}
	if !(m.Alpha >= 0 && m.Alpha < 1) {
		return fmt.Errorf("mobility: GaussMarkov.Alpha %v outside [0,1)", m.Alpha)
	}
	if !(m.SigmaSpeed >= 0 && m.SigmaDir >= 0) || math.IsInf(m.SigmaSpeed, 0) || math.IsInf(m.SigmaDir, 0) {
		return fmt.Errorf("mobility: GaussMarkov noise scales %v, %v not finite and ≥ 0", m.SigmaSpeed, m.SigmaDir)
	}
	if !(m.MeanSpeed >= m.MinSpeed && m.MeanSpeed <= m.MaxSpeed) {
		return fmt.Errorf("mobility: GaussMarkov mean speed %v outside [%v,%v]",
			m.MeanSpeed, m.MinSpeed, m.MaxSpeed)
	}
	if m.Tick < 0 {
		return fmt.Errorf("mobility: negative GaussMarkov tick %v", m.Tick)
	}
	if !(m.Margin >= 0) || math.IsInf(m.Margin, 0) {
		return fmt.Errorf("mobility: GaussMarkov margin %v not finite and ≥ 0", m.Margin)
	}
	return nil
}

// Generate produces n tracks covering [0, horizon].
func (m GaussMarkov) Generate(n int, horizon sim.Duration, rng *sim.RNG) ([]*Track, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if m.Tick <= 0 {
		m.Tick = sim.Second
	}
	if m.Margin <= 0 {
		m.Margin = 0.1 * math.Min(m.Area.W, m.Area.H)
	}
	tracks := make([]*Track, n)
	for i := 0; i < n; i++ {
		tracks[i] = m.generateOne(horizon, rng)
	}
	return tracks, nil
}

func (m GaussMarkov) generateOne(horizon sim.Duration, rng *sim.RNG) *Track {
	pos := geo.Pt(rng.Uniform(0, m.Area.W), rng.Uniform(0, m.Area.H))
	if m.MaxSpeed == 0 {
		return Static(pos)
	}
	speed := m.MeanSpeed
	dir := rng.Uniform(0, 2*math.Pi)
	meanDir := dir
	// Each product is rounded by float64(…) before it feeds a sum, so no
	// CPU fuses the two into one multiply-add (H/2 compiles to a multiply).
	noise := math.Sqrt(1 - float64(m.Alpha*m.Alpha))
	tickSec := m.Tick.Seconds()

	var segs []Segment
	t := sim.Time(0)
	end := sim.Time(0).Add(horizon)
	for t <= end {
		// Edge avoidance: inside the margin band the mean direction points
		// back at the area centre, and the current direction is pulled onto
		// it so the turn actually happens within a couple of ticks.
		if pos.X < m.Margin || pos.X > m.Area.W-m.Margin ||
			pos.Y < m.Margin || pos.Y > m.Area.H-m.Margin {
			meanDir = math.Atan2(float64(m.Area.H/2)-pos.Y, float64(m.Area.W/2)-pos.X)
			dir += float64(0.5 * angleDiff(dir, meanDir))
		}
		speed = float64(m.Alpha*speed) + float64((1-m.Alpha)*m.MeanSpeed) + float64(noise*m.SigmaSpeed*rng.Normal(0, 1))
		if speed < m.MinSpeed {
			speed = m.MinSpeed
		}
		if speed > m.MaxSpeed {
			speed = m.MaxSpeed
		}
		dir = float64(m.Alpha*dir) + float64((1-m.Alpha)*meanDir) + float64(noise*m.SigmaDir*rng.Normal(0, 1))

		step := speed * tickSec
		dst := m.Area.Clamp(geo.Pt(pos.X+float64(step*math.Cos(dir)), pos.Y+float64(step*math.Sin(dir))))
		// The emitted segment speed is the actual clamped displacement per
		// tick, ≤ the drawn speed, so the track's MaxSpeed stays a sound
		// bound for spatial-index query padding.
		actual := pos.Dist(dst) / tickSec
		segs = append(segs, Segment{Start: t, From: pos, To: dst, Speed: actual})
		pos = dst
		t = t.Add(m.Tick)
	}
	if len(segs) == 0 {
		return Static(pos)
	}
	return MustTrack(segs)
}

// angleDiff returns the signed smallest difference b−a in (−π, π].
func angleDiff(a, b float64) float64 {
	d := math.Mod(b-a, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
