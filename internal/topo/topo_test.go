package topo

import (
	"slices"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/sim"
)

func chainGraph(n int, spacing, rng float64) *Graph {
	return Snapshot(mobility.Chain(n, spacing), 0, rng)
}

func TestChainConnectivity(t *testing.T) {
	g := chainGraph(5, 200, 250)
	for i := int32(0); i < 5; i++ {
		wantDeg := 2
		if i == 0 || i == 4 {
			wantDeg = 1
		}
		if len(g.adj[i]) != wantDeg {
			t.Fatalf("node %d degree = %d, want %d", i, len(g.adj[i]), wantDeg)
		}
	}
	if !g.Connected() {
		t.Fatal("chain should be connected")
	}
	if d := g.BFS(0)[4]; d != 4 {
		t.Fatalf("HopDist(0,4) = %d, want 4", d)
	}
	if d := g.BFS(2)[2]; d != 0 {
		t.Fatalf("HopDist(self) = %d", d)
	}
}

func TestPartition(t *testing.T) {
	// Two clusters far apart.
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.Static(geo.Pt(100, 0)),
		mobility.Static(geo.Pt(5000, 0)),
		mobility.Static(geo.Pt(5100, 0)),
	}
	g := Snapshot(tracks, 0, 250)
	if g.Connected() {
		t.Fatal("partitioned graph reported connected")
	}
	if c := g.Components(); c != 2 {
		t.Fatalf("components = %d, want 2", c)
	}
	if d := g.BFS(0)[2]; d != -1 {
		t.Fatalf("HopDist across partition = %d, want -1", d)
	}
}

func TestRangeBoundaryInclusive(t *testing.T) {
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.Static(geo.Pt(250, 0)),
		mobility.Static(geo.Pt(500.5, 0)),
	}
	g := Snapshot(tracks, 0, 250)
	if len(g.adj[0]) != 1 {
		t.Fatal("edge exactly at range missing")
	}
	if g.BFS(1)[2] != -1 {
		t.Fatal("edge slightly beyond range present")
	}
}

func TestSnapshotTracksMovement(t *testing.T) {
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.MustTrack([]mobility.Segment{
			{Start: 0, From: geo.Pt(200, 0), To: geo.Pt(1000, 0), Speed: 100},
		}),
	}
	if !Snapshot(tracks, 0, 250).Connected() {
		t.Fatal("should be connected at t=0")
	}
	if Snapshot(tracks, sim.At(5), 250).Connected() {
		t.Fatal("should be partitioned at t=5 (node at 700 m)")
	}
}

func TestBFSLevels(t *testing.T) {
	g := chainGraph(6, 100, 150)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4, 5} {
		if d[i] != want {
			t.Fatalf("BFS[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestAvgDegree(t *testing.T) {
	g := chainGraph(3, 100, 150)
	// Degrees 1,2,1 → mean 4/3.
	if got := g.AvgDegree(); got < 1.32 || got > 1.34 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

func TestOracleCachingAndRefresh(t *testing.T) {
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.MustTrack([]mobility.Segment{
			{Start: 0, From: geo.Pt(200, 0), To: geo.Pt(2000, 0), Speed: 100},
		}),
	}
	o := NewOracle(tracks, 250)
	if d := o.HopDist(0, 0, 1); d != 1 {
		t.Fatalf("t=0 dist = %d", d)
	}
	// Within the cache resolution the snapshot must be reused.
	if d := o.HopDist(sim.At(0.5), 0, 1); d != 1 {
		t.Fatalf("cached dist = %d", d)
	}
	// Far later the link is gone.
	if d := o.HopDist(sim.At(10), 0, 1); d != -1 {
		t.Fatalf("t=10 dist = %d, want -1", d)
	}
	if o.snap.Connected() {
		t.Fatal("stale graph returned")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Snapshot(nil, 0, 250)
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	if g.Components() != 0 || g.N() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph invariants")
	}
}

// waypointTracks is n random-waypoint tracks over 30 s in a 1000×600 m
// field: sparse enough for partitions at 250 m, moving fast enough that the
// graph changes between refreshes.
func waypointTracks(tb testing.TB, n int, seed int64) []*mobility.Track {
	tb.Helper()
	m := mobility.RandomWaypoint{Area: geo.Rect{W: 1000, H: 600}, MinSpeed: 1, MaxSpeed: 40}
	tracks, err := m.Generate(n, 30*sim.Second, sim.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return tracks
}

// TestOracleWarmAllocatesNothing pins the oracle's reuse: once a sequence
// of queries has run, repeating it — a refresh on every time step, forward
// and back — rebuilds the graph in its rows and recycles the BFS trees
// without a single allocation.
func TestOracleWarmAllocatesNothing(t *testing.T) {
	tracks := waypointTracks(t, 30, 1)
	o := NewOracle(tracks, 250)
	times := []sim.Time{0, sim.At(2), sim.At(4.5), sim.At(1), sim.At(9)}
	queries := func() {
		for _, at := range times {
			for src := int32(0); src < 30; src += 3 {
				o.HopDist(at, src, 29-src)
			}
		}
	}
	queries()
	if n := testing.AllocsPerRun(20, queries); n != 0 {
		t.Fatalf("a warmed-up oracle made %v allocations per query sequence, want 0", n)
	}
}

// FuzzOracleHopDist checks the oracle, which rebuilds its graph in place and
// reuses its BFS trees across refreshes, against a fresh Snapshot at the
// oracle's snapshot time. Each op is three bytes: a query time in 1/8 s
// steps over 32 s, which moves back and forth across refresh boundaries, a
// source and a destination.
func FuzzOracleHopDist(f *testing.F) {
	f.Add(int64(1), uint8(12), []byte{0, 0, 1, 4, 1, 2, 40, 3, 5, 9, 0, 7, 200, 6, 1, 9, 2, 2})
	f.Add(int64(7), uint8(40), []byte{255, 39, 0, 0, 0, 39, 8, 12, 30, 7, 12, 30})
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, ops []byte) {
		n := 1 + int(nodes)%40
		tracks := waypointTracks(t, n, seed)
		const r = 250
		o := NewOracle(tracks, r)
		for ; len(ops) >= 3; ops = ops[3:] {
			at := sim.Time(ops[0]) * sim.Time(125*sim.Millisecond)
			src, dst := int32(int(ops[1])%n), int32(int(ops[2])%n)
			got := o.HopDist(at, src, dst)
			fresh := Snapshot(tracks, o.snapAt, r)
			if want := fresh.BFS(src)[dst]; got != want {
				t.Fatalf("HopDist(%v, %d, %d) = %d, a fresh snapshot at %v says %d", at, src, dst, got, o.snapAt, want)
			}
			for i := range n {
				if !slices.Equal(o.snap.adj[i], fresh.adj[i]) {
					t.Fatalf("at %v node %d: oracle neighbours %v, fresh snapshot %v", at, i, o.snap.adj[i], fresh.adj[i])
				}
			}
		}
	})
}
