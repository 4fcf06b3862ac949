package cbrp

import (
	"slices"
	"testing"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// fabricate builds a neighbour table from (id, status) pairs.
func fabricate(entries map[pkt.NodeID]NodeStatus) *neighborTable {
	t := newNeighborTable()
	for id, st := range entries {
		t.rows[id] = &neighborInfo{id: id, status: st, expires: sim.Never}
	}
	return t
}

func TestElectLowestIDBecomesHead(t *testing.T) {
	// Node 1 with higher-ID undecided neighbours wins headship.
	nt := fabricate(map[pkt.NodeID]NodeStatus{3: Undecided, 7: Undecided})
	if got := electStatus(1, nt); got != Head {
		t.Fatalf("lowest id elected %v, want head", got)
	}
}

func TestElectJoinsExistingHead(t *testing.T) {
	nt := fabricate(map[pkt.NodeID]NodeStatus{2: Head, 9: Undecided})
	if got := electStatus(5, nt); got != Member {
		t.Fatalf("node adjacent to head elected %v, want member", got)
	}
	// Even a lower-ID node joins an established head (stability rule).
	if got := electStatus(1, nt); got != Member {
		t.Fatalf("low-id node next to head elected %v, want member", got)
	}
}

func TestElectWaitsForLowerUndecided(t *testing.T) {
	nt := fabricate(map[pkt.NodeID]NodeStatus{2: Undecided, 9: Undecided})
	if got := electStatus(5, nt); got != Undecided {
		t.Fatalf("node with lower-id contender elected %v, want undecided", got)
	}
}

func TestElectIgnoresForeignMembers(t *testing.T) {
	// A lower-ID neighbour that is already a member of another cluster
	// does not block headship.
	nt := fabricate(map[pkt.NodeID]NodeStatus{2: Member, 9: Undecided})
	if got := electStatus(5, nt); got != Head {
		t.Fatalf("elected %v, want head (member neighbours don't contend)", got)
	}
}

func TestElectIsolatedNodeIsHead(t *testing.T) {
	if got := electStatus(4, newNeighborTable()); got != Head {
		t.Fatalf("isolated node elected %v, want head of its own cluster", got)
	}
}

func TestNeighborTableExpiry(t *testing.T) {
	nt := newNeighborTable()
	h := &hello{Status: Member, Neighbors: []pkt.NodeID{9}}
	nt.update(h, 3, sim.At(0), sim.At(6))
	if !nt.has(3) {
		t.Fatal("fresh neighbour missing")
	}
	if !nt.fresh(3, sim.At(1), 2*sim.Second) {
		t.Fatal("neighbour with 5s left not fresh")
	}
	if nt.fresh(3, sim.At(5), 2*sim.Second) {
		t.Fatal("neighbour with 1s left considered fresh")
	}
	nt.expire(sim.At(7))
	if nt.has(3) {
		t.Fatal("expired neighbour retained")
	}
}

func TestTwoHopKnowledge(t *testing.T) {
	nt := newNeighborTable()
	nt.update(&hello{Status: Member, Neighbors: []pkt.NodeID{7, 8}}, 3, 0, sim.Never)
	if !nt.neighborOf(3, 7) || !nt.neighborOf(3, 8) {
		t.Fatal("2-hop adjacency missing")
	}
	if nt.neighborOf(3, 9) || nt.neighborOf(4, 7) {
		t.Fatal("2-hop adjacency invented")
	}
}

func TestForeignHeadsDetection(t *testing.T) {
	nt := newNeighborTable()
	nt.update(&hello{Status: Member, Heads: []pkt.NodeID{10}}, 3, 0, sim.Never)
	nt.update(&hello{Status: Member, Heads: []pkt.NodeID{20}}, 4, 0, sim.Never)
	mine := map[pkt.NodeID]bool{10: true}
	foreign := nt.foreignHeads(mine)
	if len(foreign) != 1 || foreign[0] != 20 {
		t.Fatalf("foreignHeads = %v, want [20]", foreign)
	}
}

func TestSpliceRouteDedup(t *testing.T) {
	route := []pkt.NodeID{0, 1, 2, 3}
	// Repair at idx 1 targeting node 3 via node 2 (already downstream):
	// splice must not duplicate 2.
	out := spliceRoute(route, 1, 3, true, 2)
	seen := map[pkt.NodeID]bool{}
	for _, n := range out {
		if seen[n] {
			t.Fatalf("duplicate in spliced route %v", out)
		}
		seen[n] = true
	}
	if out[0] != 0 || out[len(out)-1] != 3 {
		t.Fatalf("splice endpoints wrong: %v", out)
	}
}

func TestStatusString(t *testing.T) {
	if Undecided.String() != "undecided" || Member.String() != "member" || Head.String() != "head" {
		t.Fatal("status strings")
	}
}

func TestGatewayDetection(t *testing.T) {
	mk := func() *CBRP {
		c := New(Config{})
		c.status = Member
		return c
	}
	// Member hearing two distinct heads is a direct gateway.
	c := mk()
	c.neighbors.rows[10] = &neighborInfo{id: 10, status: Head, expires: sim.Never}
	c.neighbors.rows[20] = &neighborInfo{id: 20, status: Head, expires: sim.Never}
	c.myHeads[10] = true
	if !c.isGateway() {
		t.Fatal("member adjacent to two heads not a gateway")
	}
	// Member hearing a foreign cluster's member is a distributed gateway.
	c = mk()
	c.neighbors.rows[10] = &neighborInfo{id: 10, status: Head, expires: sim.Never}
	c.neighbors.rows[7] = &neighborInfo{id: 7, status: Member, heads: []pkt.NodeID{30}, expires: sim.Never}
	c.myHeads[10] = true
	if !c.isGateway() {
		t.Fatal("member adjacent to a foreign member not a gateway")
	}
	// Plain member inside one cluster is not a gateway.
	c = mk()
	c.neighbors.rows[10] = &neighborInfo{id: 10, status: Head, expires: sim.Never}
	c.neighbors.rows[8] = &neighborInfo{id: 8, status: Member, heads: []pkt.NodeID{10}, expires: sim.Never}
	c.myHeads[10] = true
	if c.isGateway() {
		t.Fatal("interior member misdetected as gateway")
	}
	// Heads are never gateways.
	c = mk()
	c.status = Head
	c.neighbors.rows[10] = &neighborInfo{id: 10, status: Head, expires: sim.Never}
	if c.isGateway() {
		t.Fatal("head misdetected as gateway")
	}
}

// beaconEnv is a node whose MAC keeps only the last packet handed to it.
type beaconEnv struct {
	eng  *sim.Engine
	last *pkt.Packet
}

func (e *beaconEnv) ID() pkt.NodeID                      { return 5 }
func (e *beaconEnv) Now() sim.Time                       { return e.eng.Now() }
func (e *beaconEnv) Engine() *sim.Engine                 { return e.eng }
func (e *beaconEnv) RNG() *sim.RNG                       { return nil }
func (e *beaconEnv) NumNodes() int                       { return 16 }
func (e *beaconEnv) SendMac(p *pkt.Packet, _ pkt.NodeID) { e.last = p }
func (e *beaconEnv) Deliver(*pkt.Packet, pkt.NodeID)     {}
func (e *beaconEnv) Drop(*pkt.Packet, stats.DropReason)  {}
func (e *beaconEnv) FlushNextHop(pkt.NodeID)             {}

// TestBeaconAllocations pins a HELLO's cost: the packet, its payload and
// the head and neighbour lists are one object when the lists hold two ids
// or fewer (an isolated or one-neighbour node), and two beyond that. The
// lists come out sorted, heads first in the one backing array.
func TestBeaconAllocations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nbrs      map[pkt.NodeID]NodeStatus
		heads     []pkt.NodeID
		neighbors []pkt.NodeID
		allocs    float64
	}{
		{"isolated", nil, []pkt.NodeID{5}, nil, 1},
		{"one undecided neighbour", map[pkt.NodeID]NodeStatus{8: Undecided}, []pkt.NodeID{5}, []pkt.NodeID{8}, 1},
		{"one head neighbour", map[pkt.NodeID]NodeStatus{2: Head}, []pkt.NodeID{2}, []pkt.NodeID{2}, 1},
		{"three neighbours", map[pkt.NodeID]NodeStatus{9: Member, 7: Undecided, 6: Undecided},
			[]pkt.NodeID{5}, []pkt.NodeID{6, 7, 9}, 2},
		{"two heads", map[pkt.NodeID]NodeStatus{3: Head, 1: Head, 8: Member},
			[]pkt.NodeID{1, 3}, []pkt.NodeID{1, 3, 8}, 2},
	} {
		env := &beaconEnv{eng: sim.NewEngine()}
		c := New(Config{})
		c.Env = env
		c.neighbors = fabricate(tc.nbrs)
		c.beacon()
		h := env.last.Payload.(*hello)
		if !slices.Equal(h.Heads, tc.heads) || !slices.Equal(h.Neighbors, tc.neighbors) || cap(h.Heads) != len(h.Heads) {
			t.Errorf("%s: hello heads %v neighbours %v, want %v %v", tc.name, h.Heads, h.Neighbors, tc.heads, tc.neighbors)
		}
		if want := helloBase + 4*len(tc.heads) + 5*len(tc.neighbors) + pkt.IPHeaderBytes; env.last.Size != want {
			t.Errorf("%s: hello size %d, want %d", tc.name, env.last.Size, want)
		}
		if n := testing.AllocsPerRun(100, c.beacon); n != tc.allocs {
			t.Errorf("%s: beacon made %v allocations, want %v", tc.name, n, tc.allocs)
		}
	}
}
