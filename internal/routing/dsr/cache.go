package dsr

import (
	"slices"

	"adhocsim/internal/pkt"
)

// PathCache stores complete source routes (each a node sequence starting at
// this node's id or learned from elsewhere) and answers shortest-route
// queries. It mirrors the DSR "path cache" of the CMU implementation:
// bounded, FIFO-evicted, with link-based invalidation.
type PathCache struct {
	owner pkt.NodeID
	cap   int
	paths [][]pkt.NodeID
}

// NewPathCache creates a cache holding at most capacity paths.
func NewPathCache(owner pkt.NodeID, capacity int) *PathCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &PathCache{owner: owner, cap: capacity}
}

// Add stores a path (any node sequence, typically from a RREP record or an
// overheard source route). Duplicate paths are ignored.
func (c *PathCache) Add(path []pkt.NodeID) {
	if len(path) < 2 {
		return
	}
	// Reject paths with repeated nodes (loops). Source routes are short, so
	// a quadratic scan beats building a set on every call.
	for i, n := range path {
		if slices.Contains(path[:i], n) {
			return
		}
	}
	for _, existing := range c.paths {
		if equalPath(existing, path) {
			return
		}
	}
	if len(c.paths) >= c.cap {
		copy(c.paths, c.paths[1:])
		c.paths = c.paths[:len(c.paths)-1]
	}
	c.paths = append(c.paths, append([]pkt.NodeID(nil), path...))
}

func equalPath(a, b []pkt.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Find returns the shortest known route from the owner to dst (inclusive of
// both endpoints), or nil. Routes are extracted as subpaths of cached paths:
// the owner may appear mid-path.
func (c *PathCache) Find(dst pkt.NodeID) []pkt.NodeID {
	var best []pkt.NodeID
	for _, path := range c.paths {
		i := slices.Index(path, c.owner)
		if i < 0 {
			continue
		}
		j := slices.Index(path, dst)
		if j <= i {
			continue
		}
		cand := path[i : j+1]
		if best == nil || len(cand) < len(best) {
			best = cand
		}
	}
	if best == nil {
		return nil
	}
	return append([]pkt.NodeID(nil), best...)
}

// RemoveLink deletes every cached path that traverses the directed link
// a→b, truncating instead where the link is mid-path and the prefix remains
// useful. It reports how many paths were touched.
func (c *PathCache) RemoveLink(a, b pkt.NodeID) int {
	touched := 0
	kept := c.paths[:0]
	for _, path := range c.paths {
		cut := -1
		for i := 0; i+1 < len(path); i++ {
			if path[i] == a && path[i+1] == b {
				cut = i
				break
			}
		}
		switch {
		case cut < 0:
			kept = append(kept, path)
		case cut >= 1:
			touched++
			// Keep the usable prefix (still a valid partial path).
			if cut+1 >= 2 {
				kept = append(kept, path[:cut+1])
			}
		default:
			touched++
		}
	}
	for i := len(kept); i < len(c.paths); i++ {
		c.paths[i] = nil
	}
	c.paths = kept
	return touched
}
