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

// beaconEnv is a node whose MAC keeps only the last packet handed to it;
// released says whether the node's radio has let go of it.
type beaconEnv struct {
	eng      *sim.Engine
	last     *pkt.Packet
	released bool
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
func (e *beaconEnv) Released(*pkt.Packet) bool           { return e.released }

// checkHello reports a HELLO whose lists or size differ from what the node
// advertises.
func checkHello(t *testing.T, name string, p *pkt.Packet, heads, neighbors []pkt.NodeID) {
	t.Helper()
	h := p.Payload.(*hello)
	if !slices.Equal(h.Heads, heads) || !slices.Equal(h.Neighbors, neighbors) || cap(h.Heads) != len(h.Heads) {
		t.Errorf("%s: hello heads %v neighbours %v, want %v %v", name, h.Heads, h.Neighbors, heads, neighbors)
	}
	if want := helloBase + 4*len(heads) + 5*len(neighbors) + pkt.IPHeaderBytes; p.Size != want {
		t.Errorf("%s: hello size %d, want %d", name, p.Size, want)
	}
}

// TestBeaconAllocations pins a HELLO's cost. While the radio still holds
// the last one, a beacon is new: the packet, its payload and the head and
// neighbour lists are one object when the lists hold two ids or fewer (an
// isolated or one-neighbour node), and two beyond that. Once the radio has
// released it, the beacon is the same object rebuilt, and allocates nothing
// while its id array is large enough. The lists come out sorted, heads
// first in the one backing array.
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
		checkHello(t, tc.name, env.last, tc.heads, tc.neighbors)
		if n := testing.AllocsPerRun(100, c.beacon); n != tc.allocs {
			t.Errorf("%s: beacon made %v allocations, want %v", tc.name, n, tc.allocs)
		}
		held, heldUID := env.last, env.last.UID
		env.released = true
		if n := testing.AllocsPerRun(100, c.beacon); n != 0 {
			t.Errorf("%s: released beacon made %v allocations, want 0", tc.name, n)
		}
		if env.last != held || env.last.UID == heldUID {
			t.Errorf("%s: released beacon is not the held one rebuilt", tc.name)
		}
		checkHello(t, tc.name+" rebuilt", env.last, tc.heads, tc.neighbors)
	}
}

// TestBeaconRebuildGrowsItsArray follows one node's HELLO from isolation to
// three neighbours and back: a rebuilt beacon takes a larger id array only
// when its lists outgrow the one it has, and each rebuild carries a fresh
// UID.
func TestBeaconRebuildGrowsItsArray(t *testing.T) {
	env := &beaconEnv{eng: sim.NewEngine(), released: true}
	c := New(Config{})
	c.Env = env
	c.beacon()
	first := env.last
	checkHello(t, "isolated", first, []pkt.NodeID{5}, nil)
	uid := first.UID
	for _, step := range []struct {
		name      string
		nbrs      map[pkt.NodeID]NodeStatus
		heads     []pkt.NodeID
		neighbors []pkt.NodeID
	}{
		{"three neighbours", map[pkt.NodeID]NodeStatus{9: Member, 7: Undecided, 6: Undecided}, []pkt.NodeID{5}, []pkt.NodeID{6, 7, 9}},
		{"one neighbour", map[pkt.NodeID]NodeStatus{8: Undecided}, []pkt.NodeID{5}, []pkt.NodeID{8}},
		{"two heads", map[pkt.NodeID]NodeStatus{3: Head, 1: Head, 8: Member}, []pkt.NodeID{1, 3}, []pkt.NodeID{1, 3, 8}},
	} {
		c.neighbors = fabricate(step.nbrs)
		c.beacon()
		if env.last != first || env.last.UID <= uid {
			t.Fatalf("%s: beacon %v is not the first one rebuilt with a fresh UID", step.name, env.last)
		}
		uid = env.last.UID
		checkHello(t, step.name, env.last, step.heads, step.neighbors)
		if n := testing.AllocsPerRun(10, c.beacon); n != 0 {
			t.Errorf("%s: rebuilt beacon made %v allocations once its array had grown, want 0", step.name, n)
		}
	}
}
