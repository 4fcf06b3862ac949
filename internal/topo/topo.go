// Package topo provides a global-knowledge connectivity oracle over node
// positions: snapshot graphs, BFS hop counts (the "optimal path length" in
// the path-optimality metric) and partition checks for scenario validation.
// Routing protocols never see this information; only the measurement layer
// and scenario generator use it.
package topo

import (
	"slices"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/sim"
)

// Graph is a snapshot connectivity graph: adj[i] lists the neighbours of i.
type Graph struct {
	adj [][]int32
}

// Snapshot builds the connectivity graph at time t: an edge exists between
// two nodes iff their distance is at most radioRange. Neighbour candidates
// come from the same spatial grid the radio channel uses, so building a
// snapshot costs O(N·k) rather than the N²/2 pair scan; each adjacency list
// comes out sorted ascending, exactly as the pair scan produced it.
func Snapshot(tracks []*mobility.Track, t sim.Time, radioRange float64) *Graph {
	g := new(Graph)
	var sb snapshotBuf
	sb.build(g, tracks, t, radioRange)
	return g
}

// snapshotBuf is the scratch a snapshot is built with: the spatial grid,
// the node positions and the neighbour-query buffer. The Oracle keeps one
// across refreshes, so a refresh reuses all three.
type snapshotBuf struct {
	grid    *geo.FlatGrid
	pts     []geo.Point
	scratch []int32
}

// build fills g with the connectivity graph at t, rewriting its rows in
// place: a row whose capacity suffices is reused.
func (sb *snapshotBuf) build(g *Graph, tracks []*mobility.Track, t sim.Time, radioRange float64) {
	n := len(tracks)
	if len(g.adj) != n {
		g.adj = make([][]int32, n)
	}
	if n == 0 {
		return
	}
	if sb.grid == nil {
		sb.grid = geo.NewFlatGrid(radioRange + 1)
	}
	sb.pts = slices.Grow(sb.pts[:0], n)
	for _, tr := range tracks {
		sb.pts = append(sb.pts, tr.At(t))
	}
	sb.grid.Rebuild(sb.pts)
	for i, p := range sb.pts {
		sb.scratch = sb.grid.WithinSorted(p, radioRange, int32(i), sb.scratch[:0])
		g.adj[i] = append(g.adj[i][:0], sb.scratch...)
	}
}

// N returns the node count.
func (g *Graph) N() int { return len(g.adj) }

// BFS returns hop distances from src to every node (-1 when unreachable).
func (g *Graph) BFS(src int32) []int {
	dist := make([]int, len(g.adj))
	g.bfsInto(src, dist, make([]int32, 0, len(g.adj)))
	return dist
}

// bfsInto writes the hop distances from src into dist, which holds one
// entry per node, using queue's storage, and returns the queue for reuse.
func (g *Graph) bfsInto(src int32, dist []int, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Connected reports whether the whole graph is one component.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the number of connected components.
func (g *Graph) Components() int {
	n := len(g.adj)
	seen := make([]bool, n)
	comps := 0
	for s := int32(0); int(s) < n; s++ {
		if seen[s] {
			continue
		}
		comps++
		stack := []int32{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return comps
}

// AvgDegree returns the mean node degree (a density diagnostic).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return float64(total) / float64(len(g.adj))
}

// Oracle answers hop-distance queries against a mobility scenario, caching
// the snapshot graph and memoising BFS trees until the snapshot time moves
// by more than resolution (default 1 s). Traffic layers call it once per
// originated packet, so caching matters. A refresh rebuilds the graph in
// place and hands the old trees to the next ones, so a warmed-up oracle
// allocates nothing.
type Oracle struct {
	tracks     []*mobility.Track
	radioRange float64
	resolution sim.Duration

	snapAt  sim.Time
	snap    Graph
	buf     snapshotBuf
	bfsFrom map[int32][]int
	free    [][]int // trees of earlier snapshots, for reuse
	queue   []int32
	valid   bool
}

// NewOracle creates an oracle for the given tracks and radio range.
func NewOracle(tracks []*mobility.Track, radioRange float64) *Oracle {
	return &Oracle{
		tracks:     tracks,
		radioRange: radioRange,
		resolution: sim.Second,
		bfsFrom:    make(map[int32][]int),
	}
}

func (o *Oracle) refresh(t sim.Time) {
	if o.valid && t.Sub(o.snapAt) < o.resolution && t >= o.snapAt {
		return
	}
	o.buf.build(&o.snap, o.tracks, t, o.radioRange)
	o.snapAt = t
	o.valid = true
	for _, tree := range o.bfsFrom {
		o.free = append(o.free, tree)
	}
	clear(o.bfsFrom)
}

// HopDist returns the BFS hop distance from src to dst near time t
// (-1 when partitioned).
func (o *Oracle) HopDist(t sim.Time, src, dst int32) int {
	o.refresh(t)
	tree, ok := o.bfsFrom[src]
	if !ok {
		if k := len(o.free) - 1; k >= 0 {
			tree, o.free = o.free[k], o.free[:k]
		} else {
			tree = make([]int, o.snap.N())
		}
		o.queue = o.snap.bfsInto(src, tree, o.queue)
		o.bfsFrom[src] = tree
	}
	return tree[dst]
}
