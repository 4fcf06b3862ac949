package mobility

import (
	"math/rand"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

func randomTrack(t *testing.T, seed int64) *Track {
	t.Helper()
	m := RandomWaypoint{Area: geo.Rect{W: 1000, H: 500}, MinSpeed: 1, MaxSpeed: 20, Pause: 2 * sim.Second}
	tracks, err := m.Generate(1, 300*sim.Second, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tracks[0]
}

// TestTableMatchesTrack: the flattened table must reproduce the stateless
// Track.At bit-for-bit under any probe sequence — monotone probes, exact
// repeats, and out-of-order re-seeks alike. The channel's parity tests lean
// on this equivalence.
func TestTableMatchesTrack(t *testing.T) {
	t.Run("monotone", func(t *testing.T) {
		tr := randomTrack(t, 1)
		tb := NewTable([]*Track{tr})
		for s := 0.0; s < 320; s += 0.37 {
			at := sim.At(s)
			if got, want := tb.At(0, at), tr.At(at); got != want {
				t.Fatalf("t=%v: table %v, track %v", at, got, want)
			}
		}
	})

	t.Run("random_order", func(t *testing.T) {
		tr := randomTrack(t, 2)
		tb := NewTable([]*Track{tr})
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 500; i++ {
			at := sim.At(rng.Float64() * 320)
			if got, want := tb.At(0, at), tr.At(at); got != want {
				t.Fatalf("t=%v: table %v, track %v", at, got, want)
			}
		}
	})

	// Within one timestamp a position is computed at most once: a repeated
	// probe must return the memoised point, not a recomputation.
	t.Run("same_timestamp_memo", func(t *testing.T) {
		tr := randomTrack(t, 3)
		tb := NewTable([]*Track{tr})
		at := sim.At(42.5)
		if got, want := tb.At(0, at), tr.At(at); got != want {
			t.Fatalf("first probe: table %v, track %v", got, want)
		}
		marker := geo.Point{X: -1, Y: -1}
		tb.pos[0] = marker
		for i := 0; i < 10; i++ {
			if got := tb.At(0, at); got != marker {
				t.Fatalf("repeated same-timestamp probe recomputed: %v", got)
			}
		}
		next := at.Add(sim.Second)
		if got, want := tb.At(0, next), tr.At(next); got != want {
			t.Fatalf("new timestamp served from a stale memo: table %v, track %v", got, want)
		}
	})

	t.Run("population", testTablePopulation)
}

func testTablePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tracks []*Track
	for n := 0; n < 20; n++ {
		segs := []Segment{{
			Start: 0,
			From:  geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		}}
		segs[0].To = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if n%3 != 0 {
			segs[0].Speed = 1 + rng.Float64()*19
		}
		at := sim.Time(0)
		for k := 0; k < rng.Intn(30); k++ {
			at += sim.Time(rng.Int63n(int64(10 * sim.Second)))
			prev := segs[len(segs)-1]
			seg := Segment{Start: at, From: prev.posAt(at), To: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
			if rng.Intn(4) != 0 {
				seg.Speed = 1 + rng.Float64()*19
			}
			segs = append(segs, seg)
		}
		tracks = append(tracks, MustTrack(segs))
	}

	tb := NewTable(tracks)
	if tb.Len() != len(tracks) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(tracks))
	}

	var clock sim.Time
	for probe := 0; probe < 5000; probe++ {
		i := rng.Intn(len(tracks))
		var at sim.Time
		switch rng.Intn(4) {
		case 0: // monotone advance
			clock += sim.Time(rng.Int63n(int64(sim.Second)))
			at = clock
		case 1: // repeat the current timestamp (memo hit)
			at = clock
		case 2: // out-of-order probe into the past
			if clock > 0 {
				at = sim.Time(rng.Int63n(int64(clock) + 1))
			}
		case 3: // far-future probe beyond the last segment
			at = clock + sim.Time(rng.Int63n(int64(1000*sim.Second)))
		}
		got, want := tb.At(i, at), tracks[i].At(at)
		if got != want {
			t.Fatalf("probe %d: Table.At(%d, %v) = %v, Track.At = %v", probe, i, at, got, want)
		}
	}
}

// TestTablePositionsBatch: the batch refresh must agree with per-node At
// and leave the memo hot for subsequent same-timestamp probes.
func TestTablePositionsBatch(t *testing.T) {
	tracks := []*Track{
		Static(geo.Point{X: 1, Y: 2}),
		MustTrack([]Segment{{Start: 0, From: geo.Point{}, To: geo.Point{X: 100}, Speed: 10}}),
		MustTrack([]Segment{
			{Start: 0, From: geo.Point{}, To: geo.Point{Y: 50}, Speed: 5},
			{Start: sim.At(4), From: geo.Point{Y: 20}, To: geo.Point{X: 30, Y: 20}, Speed: 15},
		}),
	}
	tb := NewTable(tracks)
	dst := make([]geo.Point, tb.Len())
	for _, s := range []float64{0, 1.5, 4, 4.5, 100} {
		at := sim.At(s)
		tb.Positions(at, dst)
		for i, tr := range tracks {
			if want := tr.At(at); dst[i] != want {
				t.Fatalf("Positions at %v: node %d = %v, want %v", at, i, dst[i], want)
			}
			if got := tb.At(i, at); got != dst[i] {
				t.Fatalf("memo after batch at %v: node %d = %v, want %v", at, i, got, dst[i])
			}
		}
	}
	// A position query at time zero on a fresh table must not be fooled by
	// the zero-valued memo (epoch sentinel is -1, not 0).
	tb2 := NewTable(tracks)
	if got, want := tb2.At(1, 0), tracks[1].At(0); got != want {
		t.Fatalf("fresh table at t=0: %v, want %v", got, want)
	}
}

// TestTableRestUntil: the rest horizon is the first instant any node's
// position can differ from its opening point — a segment that travels, or
// one that starts somewhere else — and every position before it is the
// opening one.
func TestTableRestUntil(t *testing.T) {
	a, b := geo.Pt(10, 10), geo.Pt(400, 10)
	pause := func(at float64, p geo.Point) Segment { return Segment{Start: sim.At(at), From: p, To: p} }
	for _, tc := range []struct {
		name string
		segs [][]Segment
		want sim.Time
	}{
		{"static", [][]Segment{{pause(0, a)}, {pause(0, b), pause(30, b)}}, sim.Never},
		{"zero-length trip", [][]Segment{{pause(0, a), {Start: sim.At(5), From: a, To: a, Speed: 3}}}, sim.Never},
		{"moves from zero", [][]Segment{{pause(0, a)}, {{Start: 0, From: b, To: a, Speed: 1}}}, 0},
		{"earliest departure", [][]Segment{
			{pause(0, a), {Start: sim.At(70), From: a, To: b, Speed: 5}},
			{pause(0, b), pause(20, b), {Start: sim.At(50), From: b, To: a, Speed: 5}},
		}, sim.At(50)},
		{"jump", [][]Segment{{pause(0, a), pause(12, b)}}, sim.At(12)},
	} {
		tracks := make([]*Track, len(tc.segs))
		for i, segs := range tc.segs {
			tracks[i] = MustTrack(segs)
		}
		tb := NewTable(tracks)
		if got := tb.RestUntil(); got != tc.want {
			t.Errorf("%s: RestUntil = %v, want %v", tc.name, got, tc.want)
		}
		for i, tr := range tracks {
			for _, at := range []sim.Time{0, tc.want / 2, tc.want - 1} {
				if at >= 0 && at < tc.want && tb.At(i, at) != tr.segs[0].From {
					t.Errorf("%s: node %d at %v is %v before the rest horizon %v", tc.name, i, at, tb.At(i, at), tc.want)
				}
			}
		}
	}
}
