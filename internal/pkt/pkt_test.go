package pkt

import (
	"reflect"
	"testing"
	"unsafe"

	"adhocsim/internal/sim"
)

func TestNodeIDString(t *testing.T) {
	if Broadcast.String() != "bcast" {
		t.Fatal("broadcast string")
	}
	if NodeID(7).String() != "n7" {
		t.Fatal("node string")
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindRouting.String() != "routing" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestDataPacketSizes(t *testing.T) {
	p := DataPacket(1, 2, 42, 64, sim.At(3))
	if p.Size != 64+8+20 {
		t.Fatalf("data packet size = %d, want 92", p.Size)
	}
	if p.Kind != KindData || p.Src != 1 || p.Dst != 2 || p.Seq != 42 {
		t.Fatal("data packet fields")
	}
	if p.TTL != DefaultTTL {
		t.Fatal("TTL default")
	}
	if p.CreatedAt != sim.At(3) {
		t.Fatal("CreatedAt")
	}
}

func TestRoutingPacket(t *testing.T) {
	p := RoutingPacket("RREQ", 1, Broadcast, 5, 24, sim.At(1))
	if p.Size != 44 {
		t.Fatalf("routing packet size = %d, want 44", p.Size)
	}
	if p.Kind != KindRouting || p.Msg != "RREQ" || p.TTL != 5 {
		t.Fatal("routing packet fields")
	}
}

func TestUIDsUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		u := NewUID()
		if seen[u] {
			t.Fatal("duplicate UID")
		}
		seen[u] = true
	}
}

func TestCloneIndependence(t *testing.T) {
	p := DataPacket(1, 2, 0, 64, 0)
	p.SrcRoute = []NodeID{1, 3, 2}
	q := p.Clone()
	if q.UID == p.UID {
		t.Fatal("clone kept UID")
	}
	q.SrcRoute[1] = 9
	q.TTL--
	q.Hops++
	if p.SrcRoute[1] != 3 || p.TTL != DefaultTTL || p.Hops != 0 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestExpired(t *testing.T) {
	p := DataPacket(1, 2, 0, 10, 0)
	p.TTL = 1
	if p.Expired() {
		t.Fatal("TTL 1 should not be expired")
	}
	p.TTL = 0
	if !p.Expired() {
		t.Fatal("TTL 0 should be expired")
	}
}

func TestStringSmoke(t *testing.T) {
	p := DataPacket(1, 2, 0, 10, 0)
	if p.String() == "" {
		t.Fatal("empty String")
	}
	r := RoutingPacket("RERR", 3, Broadcast, 1, 12, 0)
	if r.String() == "" || r.String() == p.String() {
		t.Fatal("routing String")
	}
}

// body is a routing payload for the tests below.
type body struct {
	A, B  NodeID
	Route []NodeID
}

var sinkPacket *Packet

func TestRoutingSharesOneObject(t *testing.T) {
	p, m := Routing[body]("RREQ", 1, Broadcast, 5, 24, sim.At(1))
	if p.Size != 44 || p.Kind != KindRouting || p.Msg != "RREQ" || p.TTL != 5 || p.CreatedAt != sim.At(1) {
		t.Fatalf("routing packet fields: %v", p)
	}
	if p.Payload.(*body) != m {
		t.Fatal("payload is not the returned body")
	}
	q, _ := Routing[body]("RREQ", 1, Broadcast, 5, 24, 0)
	if q.UID == p.UID {
		t.Fatal("two routing packets share a UID")
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkPacket, _ = Routing[body]("RREQ", 1, Broadcast, 5, 24, 0)
	}); n != 1 {
		t.Fatalf("Routing made %v allocations, want 1", n)
	}
}

func TestCloneRoutingCopiesPayload(t *testing.T) {
	p, m := Routing[body]("RREQ", 1, Broadcast, 5, 24, 0)
	*m = body{A: 1, B: 2, Route: []NodeID{1}}
	p.SrcRoute = []NodeID{1, 2}
	q, m2 := CloneRouting[body](p)
	if q.UID == p.UID || q.Payload.(*body) != m2 || m2 == m || m2.A != 1 || m2.B != 2 || len(m2.Route) != 1 {
		t.Fatalf("clone %v payload %+v", q, m2)
	}
	m2.A, q.TTL, q.SrcRoute[0] = 9, 4, 7
	if m.A != 1 || p.TTL != 5 || p.SrcRoute[0] != 1 {
		t.Fatal("changing the clone changed the original")
	}
	p.SrcRoute = nil
	if n := testing.AllocsPerRun(100, func() {
		sinkPacket, _ = CloneRouting[body](p)
	}); n != 1 {
		t.Fatalf("CloneRouting made %v allocations, want 1", n)
	}
}

// TestPacketLayout pins the packet at 136 bytes: a routing message with a
// body of up to 8 bytes then stays in the 144-byte size class a bare packet
// takes, so fusing never costs heap bytes for the smallest payloads.
func TestPacketLayout(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 136 {
		t.Fatalf("Packet is %d bytes, want 136", n)
	}
}

// Truncate makes body a Body for the Slot tests.
func (b *body) Truncate() { b.Route = b.Route[:0] }

// releaser answers every Released with itself.
type releaser bool

func (r releaser) Released(*Packet) bool { return bool(r) }

func TestSlotRebuildsOnlyReleasedMessages(t *testing.T) {
	var s Slot[body, *body]
	p, m := s.Routing(releaser(true), "HELLO", 1, Broadcast, 1, 8, sim.At(1))
	if p.Payload.(*body) != m || m.Route != nil {
		t.Fatalf("an empty slot's first message: payload %v body %+v", p.Payload, m)
	}
	m.A, m.Route = 4, append(m.Route, 1, 2, 3)

	// Held: a new message with a zero body, and the slot keeps it.
	q, mq := s.Routing(releaser(false), "HELLO", 1, Broadcast, 1, 8, sim.At(2))
	if q == p || mq.A != 0 || mq.Route != nil || m.A != 4 || len(m.Route) != 3 {
		t.Fatalf("a held message was rebuilt: %v %+v, the held one %+v", q, mq, m)
	}
	mq.A, mq.Route = 5, append(mq.Route, 7, 8, 9)
	q.TTL, q.Hops, q.SrcRoute, q.Salvaged = 0, 3, []NodeID{1, 2}, 1
	heldUID := q.UID

	// Released: the slot's last message, its header built afresh exactly
	// as Routing builds one, its slices truncated with their arrays kept.
	r, mr := s.Routing(releaser(true), "HELLO", 2, 9, 4, 12, sim.At(3))
	want, _ := Routing[body]("HELLO", 2, 9, 4, 12, sim.At(3))
	want.UID, want.Payload = r.UID, mr
	if r != q || mr != mq || r.UID == heldUID {
		t.Fatalf("released message not rebuilt in place: %v", r)
	}
	if !reflect.DeepEqual(*r, *want) {
		t.Fatalf("rebuilt header %+v, want %+v", *r, *want)
	}
	if mr.A != 5 || len(mr.Route) != 0 || cap(mr.Route) < 3 {
		t.Fatalf("rebuilt body %+v (cap %d), want A kept and Route truncated", mr, cap(mr.Route))
	}
	uid := r.UID
	if n := testing.AllocsPerRun(100, func() {
		sinkPacket, _ = s.Routing(releaser(true), "HELLO", 2, 9, 4, 12, 0)
	}); n != 0 {
		t.Fatalf("a released rebuild made %v allocations, want 0", n)
	}
	if sinkPacket != q || sinkPacket.UID <= uid {
		t.Fatal("rebuilds did not draw fresh UIDs on the one object")
	}
}
