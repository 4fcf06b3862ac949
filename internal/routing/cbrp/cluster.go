package cbrp

import (
	"slices"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// NodeStatus is the clustering role of a node.
type NodeStatus uint8

const (
	// Undecided nodes are still waiting for the neighbourhood to settle.
	Undecided NodeStatus = iota
	// Member nodes belong to at least one cluster head.
	Member
	// Head nodes are cluster heads.
	Head
)

func (s NodeStatus) String() string {
	switch s {
	case Undecided:
		return "undecided"
	case Member:
		return "member"
	default:
		return "head"
	}
}

// neighborInfo is this node's view of one neighbour, assembled from HELLOs.
type neighborInfo struct {
	id      pkt.NodeID
	status  NodeStatus
	heads   []pkt.NodeID // the clusters the neighbour belongs to
	twoHop  []pkt.NodeID // the neighbour's own neighbour list
	expires sim.Time
}

// neighborTable tracks 1-hop neighbours and, through their advertised
// neighbour lists, the 2-hop topology.
type neighborTable struct {
	rows map[pkt.NodeID]*neighborInfo
}

func newNeighborTable() *neighborTable {
	return &neighborTable{rows: make(map[pkt.NodeID]*neighborInfo)}
}

// update installs a fresh HELLO observation. A known neighbour's row is
// rewritten in place, reusing its slices: no row is referenced from outside
// the table.
func (t *neighborTable) update(h *hello, from pkt.NodeID, now, expiry sim.Time) {
	r := t.rows[from]
	if r == nil {
		r = &neighborInfo{id: from}
		t.rows[from] = r
	}
	r.status = h.Status
	r.heads = append(r.heads[:0], h.Heads...)
	r.twoHop = append(r.twoHop[:0], h.Neighbors...)
	r.expires = expiry
}

// expire drops stale rows.
func (t *neighborTable) expire(now sim.Time) {
	if len(t.rows) == 0 {
		return
	}
	for id, r := range t.rows {
		if !r.expires.After(now) {
			delete(t.rows, id)
		}
	}
}

// has reports whether id is a live neighbour.
func (t *neighborTable) has(id pkt.NodeID) bool {
	_, ok := t.rows[id]
	return ok
}

// fresh reports whether id is a neighbour heard recently enough that the
// link is unlikely to have stretched away (at least margin of lifetime
// left). Route shortening and local repair use this stricter test: acting
// on a stale entry turns an optimization into a broken hop.
func (t *neighborTable) fresh(id pkt.NodeID, now sim.Time, margin sim.Duration) bool {
	r, ok := t.rows[id]
	return ok && r.expires.Sub(now) >= margin
}

// appendIDs appends the live neighbour ids to out in ascending order. The
// order is part of the protocol's determinism contract: local repair scans
// this list for a bridging neighbour and takes the first match, so handing
// out Go's randomised map order here made CBRP runs diverge across
// processes.
func (t *neighborTable) appendIDs(out []pkt.NodeID) []pkt.NodeID {
	start := len(out)
	out = slices.Grow(out, len(t.rows))
	for id := range t.rows {
		out = append(out, id)
	}
	slices.Sort(out[start:])
	return out
}

// headCount returns how many neighbours currently act as cluster heads.
func (t *neighborTable) headCount() int {
	n := 0
	for _, r := range t.rows {
		if r.status == Head {
			n++
		}
	}
	return n
}

// neighborOf reports whether via (one of our neighbours) is itself adjacent
// to target, per via's advertised neighbour list — our 2-hop knowledge.
func (t *neighborTable) neighborOf(via, target pkt.NodeID) bool {
	r, ok := t.rows[via]
	if !ok {
		return false
	}
	for _, n := range r.twoHop {
		if n == target {
			return true
		}
	}
	return false
}

// foreignHeads returns cluster heads adjacent to our neighbours but not our
// own heads — reachability into adjacent clusters (gateway detection).
// Sorted ascending so callers see a process-independent order.
func (t *neighborTable) foreignHeads(myHeads map[pkt.NodeID]bool) []pkt.NodeID {
	if len(t.rows) == 0 {
		return nil
	}
	seen := map[pkt.NodeID]bool{}
	var out []pkt.NodeID
	for _, r := range t.rows {
		for _, h := range r.heads {
			if !myHeads[h] && !seen[h] && !t.has(h) {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	slices.Sort(out)
	return out
}

// electStatus applies the lowest-ID clustering rule for node me:
//
//   - a node adjacent to a cluster head with a lower ID (or any head, if the
//     node has no chance to win) joins as a member;
//   - a node whose ID is the minimum among all non-member neighbours
//     becomes a head;
//   - otherwise the node stays undecided and waits for lower-ID neighbours
//     to resolve.
//
// The rule converges in O(diameter) hello rounds and matches CBRP's
// bootstrap behaviour closely enough for the study's purposes.
func electStatus(me pkt.NodeID, t *neighborTable) NodeStatus {
	if len(t.rows) == 0 {
		return Head // isolated node: trivially its own cluster
	}
	minContender := me
	for id, r := range t.rows {
		if r.status == Head {
			return Member
		}
		if r.status != Member && id < minContender {
			minContender = id
		}
	}
	if minContender == me {
		return Head
	}
	return Undecided
}
