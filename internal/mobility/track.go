// Package mobility generates and evaluates node movement patterns.
//
// Movement is precomputed: a generator (random waypoint, random walk, static)
// expands a scenario into one Track per node, a piecewise-linear function of
// virtual time. This mirrors ns-2/CMU practice, where the `setdest` tool
// emits a movement script before the simulation starts, and makes position
// queries cheap and the pattern independent of protocol behaviour.
package mobility

import (
	"fmt"
	"sort"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// Segment is one leg of movement: the node departs From at Start and moves
// toward To at Speed m/s (Speed 0 means it pauses at From). The segment ends
// when the next one starts; the last segment extends forever.
type Segment struct {
	Start sim.Time
	From  geo.Point
	To    geo.Point
	Speed float64 // metres per second; 0 = stationary
}

// Track is a node's full movement schedule, segments sorted by Start.
type Track struct {
	segs []Segment
}

// NewTrack builds a track from segments, which must be sorted by Start and
// non-empty with the first segment at time 0.
func NewTrack(segs []Segment) (*Track, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("mobility: empty track")
	}
	if segs[0].Start != 0 {
		return nil, fmt.Errorf("mobility: first segment starts at %v, want 0", segs[0].Start)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].Start {
			return nil, fmt.Errorf("mobility: segments out of order at %d", i)
		}
	}
	return &Track{segs: segs}, nil
}

// MustTrack is NewTrack that panics on error (for generators and tests).
func MustTrack(segs []Segment) *Track {
	tr, err := NewTrack(segs)
	if err != nil {
		panic(err)
	}
	return tr
}

// Static returns a track that stays at p forever.
func Static(p geo.Point) *Track {
	return MustTrack([]Segment{{Start: 0, From: p, To: p, Speed: 0}})
}

// At returns the node position at time t.
func (tr *Track) At(t sim.Time) geo.Point {
	return tr.segmentAt(t).posAt(t)
}

// posAt evaluates the position within this segment at time t (t must be at
// or after the segment's Start).
func (s Segment) posAt(t sim.Time) geo.Point {
	if s.Speed == 0 {
		return s.From
	}
	dist := s.Speed * t.Sub(s.Start).Seconds()
	total := s.From.Dist(s.To)
	if total == 0 || dist >= total {
		return s.To
	}
	return s.From.Lerp(s.To, dist/total)
}

// MaxSpeed returns the fastest speed over the whole schedule — an upper
// bound on how far the node can drift per unit time, used by the radio
// channel to pad spatial-index queries between reindexes.
func (tr *Track) MaxSpeed() float64 {
	max := 0.0
	for _, s := range tr.segs {
		if s.Speed > max {
			max = s.Speed
		}
	}
	return max
}

// MaxTrackSpeed returns the fastest speed across all tracks.
func MaxTrackSpeed(tracks []*Track) float64 {
	max := 0.0
	for _, tr := range tracks {
		if v := tr.MaxSpeed(); v > max {
			max = v
		}
	}
	return max
}

func (tr *Track) segmentAt(t sim.Time) Segment {
	// Binary search for the last segment with Start <= t.
	i := sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].Start > t })
	if i == 0 {
		return tr.segs[0]
	}
	return tr.segs[i-1]
}
