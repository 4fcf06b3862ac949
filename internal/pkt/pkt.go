// Package pkt defines the network-layer packet model shared by the traffic
// generators, routing protocols and forwarding plane. Header sizes are
// byte-accurate so that routing-overhead metrics can be reported in both
// packets and bytes, as in Broch et al. 1998.
package pkt

import (
	"fmt"
	"sync/atomic"

	"adhocsim/internal/sim"
)

// NodeID identifies a node (its "IP address"). IDs are dense small integers.
type NodeID int32

// Broadcast is the link/network broadcast address.
const Broadcast NodeID = -1

// String renders a node id, with the broadcast address spelled out.
func (id NodeID) String() string {
	if id == Broadcast {
		return "bcast"
	}
	return fmt.Sprintf("n%d", int32(id))
}

// Kind classifies packets for metric accounting.
type Kind uint8

const (
	// KindData is application (CBR) traffic.
	KindData Kind = iota
	// KindRouting is routing-protocol control traffic.
	KindRouting
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindRouting:
		return "routing"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Header sizes in bytes, following ns-2/CMU conventions.
const (
	IPHeaderBytes  = 20
	UDPHeaderBytes = 8
	// SrcRouteAddrBytes is the per-hop cost of carrying a source route in
	// a packet header (DSR, CBRP): 4 bytes per address.
	SrcRouteAddrBytes = 4
	// DefaultTTL matches the IP default used by the CMU extensions.
	DefaultTTL = 32
)

// Packet is a network-layer packet, passed by pointer. Who may write to it
// depends on how it arrived:
//
//   - A unicast packet is handed to the next hop with the frame. The next
//     hop may change its header state (TTL, hops, source-route index) and
//     forward the same object.
//   - A broadcast packet is shared: every receiver of the frame gets the
//     sender's pointer. Once sent it is read-only, to the sender and every
//     receiver, header and payload alike. A receiver that changes header
//     state, for a relay or a delivery, Clones it first and works on the
//     copy, and a receiver copies whatever it keeps past its Recv call.
//   - A broadcast stays read-only until its sender's network.Env.Released
//     reports that nothing below the routing layer can still read it.
//     From then on only the sender may touch it, and a sender that repeats
//     a message rebuilds that object in place through a Slot.
//
// The fields are laid out in 136 bytes (Seq fills Kind's word), so a
// routing message fused with a body of up to 8 bytes by Routing stays in
// the 144-byte size class of a bare packet.
type Packet struct {
	// UID names one packet object, issued when it is built or Cloned. A
	// unicast packet keeps its UID hop to hop. A broadcast's UID names one
	// transmission: every receiver shares the sender's, so the trace lines
	// of one broadcast show one UID at the sender and at each receiver,
	// and a relay shows the fresh UID of its copy.
	UID  uint64
	Kind Kind
	// Seq is the application sequence number (per source), used by sinks
	// to detect duplicates.
	Seq uint32
	// Msg labels routing messages ("RREQ", "RREP", …) for per-type
	// overhead breakdowns; empty for data packets.
	Msg string

	Src NodeID // originator (network layer)
	Dst NodeID // final destination, or Broadcast
	TTL int
	// Hops counts network-layer forwards so far (for path optimality).
	Hops int

	// Size is the total packet size in bytes including IP header and any
	// protocol-specific header, but excluding MAC framing (the MAC adds
	// its own framing when computing airtime).
	Size int

	// CreatedAt is the origination timestamp (end-to-end delay baseline:
	// when the application handed the packet to the network layer).
	CreatedAt sim.Time

	// OptimalHops is the BFS shortest hop distance from Src to Dst at
	// origination time, filled by the traffic layer for path-optimality
	// accounting. Zero when unknown/unreachable.
	OptimalHops int

	// Salvaged counts DSR-style salvage operations applied to the packet.
	Salvaged int

	// SrcRoute is the full source route (including Src and Dst) for
	// source-routed protocols; SRIndex is the position of the node that
	// currently holds the packet. Nil for table-driven protocols.
	SrcRoute []NodeID
	SRIndex  int

	// Payload carries a protocol-specific routing header. Routing builds
	// it in the packet's own allocation, and CloneRouting copies it into
	// the copy's, so a payload may share its packet's object. Payloads are
	// immutable once sent: Clone copies the reference only, and a relay
	// that changes the payload takes a CloneRouting copy.
	Payload any
}

var nextUID atomic.Uint64

// NewUID issues a fresh packet UID. The counter is process-global and
// atomic: independent simulation runs execute in parallel goroutines, and
// UIDs only need to be unique, not dense — runs never compare UIDs across
// engines, so the shared counter does not harm reproducibility.
func NewUID() uint64 {
	return nextUID.Add(1)
}

// Clone returns a copy of p with a fresh UID and a deep-copied source route,
// which the caller owns and may change. The payload reference is shared
// (payloads are immutable). Cloning draws no randomness, so where a packet
// is copied never moves results.
func (p *Packet) Clone() *Packet {
	q := new(Packet)
	p.cloneInto(q)
	return q
}

// cloneInto makes *q the Clone of p.
func (p *Packet) cloneInto(q *Packet) {
	*q = *p
	q.UID = NewUID()
	if p.SrcRoute != nil {
		q.SrcRoute = append([]NodeID(nil), p.SrcRoute...)
	}
}

// Expired reports whether the TTL has been exhausted.
func (p *Packet) Expired() bool { return p.TTL <= 0 }

// String renders a compact description for traces and test failures.
func (p *Packet) String() string {
	label := p.Msg
	if label == "" {
		label = p.Kind.String()
	}
	return fmt.Sprintf("%s %v->%v uid=%d ttl=%d hops=%d size=%dB", label, p.Src, p.Dst, p.UID, p.TTL, p.Hops, p.Size)
}

// DataPacket builds an application data packet of payloadBytes carried over
// UDP/IP.
func DataPacket(src, dst NodeID, seq uint32, payloadBytes int, at sim.Time) *Packet {
	return &Packet{
		UID:       NewUID(),
		Kind:      KindData,
		Src:       src,
		Dst:       dst,
		TTL:       DefaultTTL,
		Size:      payloadBytes + UDPHeaderBytes + IPHeaderBytes,
		CreatedAt: at,
		Seq:       seq,
	}
}

// routingHeader is a routing control packet's header. bodyBytes is the size
// of the protocol message body; the IP header is added here.
func routingHeader(msg string, src, dst NodeID, ttl, bodyBytes int, at sim.Time) Packet {
	return Packet{
		UID:       NewUID(),
		Kind:      KindRouting,
		Msg:       msg,
		Src:       src,
		Dst:       dst,
		TTL:       ttl,
		Size:      bodyBytes + IPHeaderBytes,
		CreatedAt: at,
	}
}

// RoutingPacket builds a routing control packet without a payload. A
// protocol message with a body is built by Routing.
func RoutingPacket(msg string, src, dst NodeID, ttl, bodyBytes int, at sim.Time) *Packet {
	p := routingHeader(msg, src, dst, ttl, bodyBytes, at)
	return &p
}

// routingMsg is a routing packet and its payload in one object.
type routingMsg[T any] struct {
	p    Packet
	body T
}

// Routing builds a routing control packet whose payload is a zero T held in
// the same allocation, and returns both; the caller fills the body before
// sending. bodyBytes is the size of the protocol message body; the IP
// header is added here.
func Routing[T any](msg string, src, dst NodeID, ttl, bodyBytes int, at sim.Time) (*Packet, *T) {
	m := &routingMsg[T]{p: routingHeader(msg, src, dst, ttl, bodyBytes, at)}
	m.p.Payload = &m.body
	return &m.p, &m.body
}

// Body is the body of a routing message that a Slot rebuilds in place:
// Truncate cuts each of its slices to length zero and keeps the arrays, so
// the sender refills them without allocating.
type Body[T any] interface {
	*T
	Truncate()
}

// Releaser reports whether nothing below the routing layer can still read a
// packet its node sent; network.Env is one.
type Releaser interface {
	Released(p *Packet) bool
}

// Slot holds the one routing message, with a body T, that a sender sends
// again and again: a beacon or a periodic table dump. The zero Slot is
// empty and ready to use.
type Slot[T any, B Body[T]] struct {
	m *routingMsg[T]
}

// Routing is Routing for the slot's message. Once r has released the
// slot's last packet, that object is rebuilt in place: its header is built
// afresh, with a new UID, exactly as Routing builds one, and its body keeps
// its contents except for the slices Truncate empties. Until then Routing
// builds a new message, with a zero body, and the slot keeps that one
// instead. Either way the caller refills the body before sending.
func (s *Slot[T, B]) Routing(r Releaser, msg string, src, dst NodeID, ttl, bodyBytes int, at sim.Time) (*Packet, *T) {
	if s.m != nil && r.Released(&s.m.p) {
		B(&s.m.body).Truncate()
	} else {
		s.m = new(routingMsg[T])
	}
	s.m.p = routingHeader(msg, src, dst, ttl, bodyBytes, at)
	s.m.p.Payload = &s.m.body
	return &s.m.p, &s.m.body
}

// CloneRouting is Clone for a relay that changes the payload, a *T: the copy
// and a copy of the payload share one new object, which the caller owns and
// may change before sending.
func CloneRouting[T any](p *Packet) (*Packet, *T) {
	m := &routingMsg[T]{body: *p.Payload.(*T)}
	p.cloneInto(&m.p)
	m.p.Payload = &m.body
	return &m.p, &m.body
}
