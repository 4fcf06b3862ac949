package mobility

import (
	"sort"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// Table is the stateful position reader for a whole node population, built
// for the hot lookup path of the radio channel: every track's segments live
// in one contiguous arena, and the per-node lookup state (segment hint,
// memo epoch, memoised position) lives in parallel flat slices instead of
// one heap object per node. At city-scale populations this keeps the
// position lookup — the innermost call of every transmission leg — walking
// dense arrays rather than chasing a *Track pointer per probe.
//
// Every lookup equals Track.At bit for bit. Within one virtual timestamp a
// node's position is computed at most once, no matter how many
// transmissions probe it; monotone queries advance the segment hint
// linearly; out-of-order probes re-seek by binary search. A Table belongs
// to one single-threaded simulation world; the Tracks stay immutable and
// shareable.
type Table struct {
	segs []Segment // all tracks' segments, concatenated in node order
	off  []int32   // node i's segments are segs[off[i]:off[i+1]]

	restUntil sim.Time // earliest Start of a segment that changes a position

	seg   []int32     // per-node hint: arena index of the last-used segment
	epoch []sim.Time  // per-node timestamp of the memoised position (-1 = none)
	pos   []geo.Point // per-node memoised position
}

// NewTable flattens the tracks (node id = slice index) into one table.
func NewTable(tracks []*Track) *Table {
	total := 0
	for _, tr := range tracks {
		total += len(tr.segs)
	}
	tb := &Table{
		segs:  make([]Segment, 0, total),
		off:   make([]int32, len(tracks)+1),
		seg:   make([]int32, len(tracks)),
		epoch: make([]sim.Time, len(tracks)),
		pos:   make([]geo.Point, len(tracks)),

		restUntil: sim.Never,
	}
	for i, tr := range tracks {
		tb.off[i] = int32(len(tb.segs))
		tb.seg[i] = int32(len(tb.segs))
		tb.epoch[i] = -1 // no virtual timestamp is negative: never a false memo hit
		tb.segs = append(tb.segs, tr.segs...)
		for _, s := range tr.segs {
			// Segments are sorted by Start: a track's first that departs
			// from its opening point, or travels, ends its rest.
			if s.From != tr.segs[0].From || (s.Speed != 0 && s.To != s.From) {
				tb.restUntil = min(tb.restUntil, s.Start)
				break
			}
		}
	}
	tb.off[len(tracks)] = int32(len(tb.segs))
	return tb
}

// Len returns the number of nodes in the table.
func (tb *Table) Len() int { return len(tb.off) - 1 }

// RestUntil returns the time before which no node's position differs from
// its position at time zero: the earliest Start of any segment that changes
// a position, sim.Never when none does. The radio channel keeps its spatial
// index and its per-sender link lists for exactly that long.
func (tb *Table) RestUntil() sim.Time { return tb.restUntil }

// At returns node i's position at time t, memoised per (node, timestamp).
func (tb *Table) At(i int, t sim.Time) geo.Point {
	if tb.epoch[i] == t {
		return tb.pos[i]
	}
	return tb.lookup(i, t)
}

func (tb *Table) lookup(i int, t sim.Time) geo.Point {
	s := int(tb.seg[i])
	segs := tb.segs
	if t < segs[s].Start {
		// Out-of-order probe (rare): re-seek within this node's range.
		lo, hi := int(tb.off[i]), int(tb.off[i+1])
		j := lo + sort.Search(hi-lo, func(k int) bool { return segs[lo+k].Start > t })
		if j == lo {
			j = lo + 1
		}
		s = j - 1
	} else {
		hi := int(tb.off[i+1])
		for s+1 < hi && segs[s+1].Start <= t {
			s++
		}
	}
	tb.seg[i] = int32(s)
	tb.epoch[i] = t
	p := segs[s].posAt(t)
	tb.pos[i] = p
	return p
}

// Positions refreshes every node's position at time t into dst (which must
// hold Len() points) in one pass — the batch form the radio channel's
// reindex uses, so a 10k-node rebuild is one linear sweep over the arena
// instead of 10k indirect calls. The memo is updated too: probes at
// the same timestamp afterwards are pure array reads.
func (tb *Table) Positions(t sim.Time, dst []geo.Point) {
	for i := range dst {
		if tb.epoch[i] == t {
			dst[i] = tb.pos[i]
			continue
		}
		dst[i] = tb.lookup(i, t)
	}
}
