package mobility

import (
	"fmt"
	"math"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// Manhattan is the Manhattan-grid mobility model (ETSI urban pattern, as in
// the Camp et al. survey): nodes move along a lattice of horizontal and
// vertical streets overlaid on the area. A node travels street by street
// between adjacent intersections at a per-leg uniform speed; at each
// intersection it turns onto a crossing street with probability TurnProb
// (split evenly between the available turns), otherwise it continues
// straight. Nodes never reverse unless the grid leaves no other choice.
//
// Per-leg speeds are drawn uniformly from [MinSpeed, MaxSpeed], so
// Track.MaxSpeed — and hence mobility.MaxTrackSpeed, the bound the
// spatial-index transmit path relies on — never exceeds MaxSpeed.
type Manhattan struct {
	Area geo.Rect
	// BlocksX/BlocksY are the number of city blocks per axis (streets run
	// on the block boundaries, so there are Blocks+1 parallel streets).
	// 0 derives a count from the area at ~250 m block size.
	BlocksX, BlocksY int
	MinSpeed         float64 // m/s
	MaxSpeed         float64 // m/s
	// TurnProb is the probability of turning at an intersection with a
	// crossing street, in [0,1].
	TurnProb float64
}

// grid directions in a fixed order (determinism): east, west, north, south.
var manhattanDirs = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// check reports configuration errors (zero block counts are legal: they
// derive from the area at Generate time). The registry builder calls it
// too, so a bad parameterization fails at Spec.Validate time instead of
// mid-campaign.
func (m Manhattan) check() error {
	if m.Area.W <= 0 || m.Area.H <= 0 {
		return fmt.Errorf("mobility: degenerate area %+v", m.Area)
	}
	if m.MaxSpeed < m.MinSpeed || m.MinSpeed < 0 {
		return fmt.Errorf("mobility: bad speed range [%v,%v]", m.MinSpeed, m.MaxSpeed)
	}
	if m.TurnProb < 0 || m.TurnProb > 1 {
		return fmt.Errorf("mobility: Manhattan.TurnProb %v outside [0,1]", m.TurnProb)
	}
	if m.BlocksX < 0 || m.BlocksY < 0 {
		return fmt.Errorf("mobility: negative Manhattan block count %d×%d", m.BlocksX, m.BlocksY)
	}
	return nil
}

// Generate produces n tracks covering [0, horizon].
func (m Manhattan) Generate(n int, horizon sim.Duration, rng *sim.RNG) ([]*Track, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if m.BlocksX == 0 {
		m.BlocksX = defaultBlocks(m.Area.W)
	}
	if m.BlocksY == 0 {
		m.BlocksY = defaultBlocks(m.Area.H)
	}
	if m.BlocksX < 1 || m.BlocksY < 1 {
		return nil, fmt.Errorf("mobility: Manhattan needs at least 1×1 blocks, got %d×%d",
			m.BlocksX, m.BlocksY)
	}
	tracks := make([]*Track, n)
	for i := 0; i < n; i++ {
		tracks[i] = m.generateOne(horizon, rng)
	}
	return tracks, nil
}

// defaultBlocks targets ~250 m blocks (the study's radio range), at least 1.
func defaultBlocks(side float64) int {
	b := int(math.Round(side / 250))
	if b < 1 {
		b = 1
	}
	return b
}

// point maps intersection indices to area coordinates.
func (m Manhattan) point(ix, iy int) geo.Point {
	return geo.Pt(float64(ix)*m.Area.W/float64(m.BlocksX), float64(iy)*m.Area.H/float64(m.BlocksY))
}

func (m Manhattan) generateOne(horizon sim.Duration, rng *sim.RNG) *Track {
	ix, iy := rng.Intn(m.BlocksX+1), rng.Intn(m.BlocksY+1)
	pos := m.point(ix, iy)
	if m.MaxSpeed == 0 {
		return Static(pos)
	}
	dir := m.chooseDir(ix, iy, -1, false, rng)

	var segs []Segment
	t := sim.Time(0)
	end := sim.Time(0).Add(horizon)
	for t <= end {
		d := manhattanDirs[dir]
		jx, jy := ix+d[0], iy+d[1]
		dst := m.point(jx, jy)
		speed := rng.Uniform(m.MinSpeed, m.MaxSpeed)
		if speed <= 0 {
			speed = m.MaxSpeed
		}
		segs = append(segs, Segment{Start: t, From: pos, To: dst, Speed: speed})
		travel := sim.Seconds(pos.Dist(dst) / speed)
		if travel <= 0 {
			travel = sim.Microsecond
		}
		t = t.Add(travel)
		ix, iy, pos = jx, jy, dst
		dir = m.chooseDir(ix, iy, dir, rng.Float64() < m.TurnProb, rng)
	}
	if len(segs) == 0 {
		return Static(pos)
	}
	return MustTrack(segs)
}

// chooseDir picks the next travel direction from intersection (ix,iy).
// prev is the current direction (−1 at the start), turn requests a turn onto
// a crossing street. Reversing is the last resort (dead ends only).
func (m Manhattan) chooseDir(ix, iy, prev int, turn bool, rng *sim.RNG) int {
	reverse := -1
	if prev >= 0 {
		reverse = prev ^ 1 // pairs are (0,1) east/west and (2,3) north/south
	}
	var buf [len(manhattanDirs)]int
	candidates := buf[:0]
	for di, d := range manhattanDirs {
		if di == reverse {
			continue
		}
		jx, jy := ix+d[0], iy+d[1]
		if jx < 0 || jx > m.BlocksX || jy < 0 || jy > m.BlocksY {
			continue
		}
		candidates = append(candidates, di)
	}
	if len(candidates) == 0 {
		return reverse // dead end: U-turn
	}
	// Going straight is a candidate only when not turning (and possible);
	// when turning (or straight is blocked) pick uniformly among the rest.
	if prev >= 0 && !turn {
		for _, di := range candidates {
			if di == prev {
				return di
			}
		}
	}
	turns := candidates[:0]
	for _, di := range candidates {
		if di != prev {
			turns = append(turns, di)
		}
	}
	if len(turns) == 0 {
		return prev
	}
	return turns[rng.Intn(len(turns))]
}
