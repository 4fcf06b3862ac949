// Package network glues the stack together: it owns the per-node plumbing
// between MAC, routing agent and traffic sinks, and defines the Protocol
// interface that every routing protocol implements. It deliberately knows
// nothing about any specific protocol.
package network

import (
	"adhocsim/internal/mac"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/trace"
)

// Env is the node-side API a routing protocol programs against.
type Env interface {
	// ID is this node's address.
	ID() pkt.NodeID
	// Now is the current virtual time.
	Now() sim.Time
	// Engine exposes the event scheduler for protocol timers.
	Engine() *sim.Engine
	// RNG is the protocol's deterministic random substream (jitter etc.).
	RNG() *sim.RNG
	// SendMac hands a packet to the MAC toward the link-level next hop
	// (pkt.Broadcast floods one hop). Each call counts as one
	// transmission in the overhead metrics.
	SendMac(p *pkt.Packet, nextHop pkt.NodeID)
	// Deliver passes a data packet that reached its destination up to
	// the local traffic sink.
	Deliver(p *pkt.Packet, from pkt.NodeID)
	// Drop records the death of a packet.
	Drop(p *pkt.Packet, reason stats.DropReason)
	// FlushNextHop pulls every packet queued at the MAC for a broken
	// next hop back through MacFailed, so the protocol can re-route or
	// salvage them.
	FlushNextHop(to pkt.NodeID)
	// NumNodes is the total number of nodes in the scenario (protocols
	// use it only for sizing tables, never for routing knowledge).
	NumNodes() int
	// Released reports whether nothing below the routing layer can still
	// read p, a packet this node sent: the MAC neither queues it nor has
	// it in flight, and every frame the radio has sent has finished
	// arriving everywhere. Only then may the sender rebuild a broadcast
	// in place (see pkt.Packet and pkt.Slot).
	Released(p *pkt.Packet) bool
}

// Protocol is a routing agent bound to one node. Implementations must be
// purely event-driven and use only Env for I/O.
type Protocol interface {
	// Start runs once at simulation start (schedule beacons here).
	Start(env Env)
	// SendData originates an application packet at this node. The
	// protocol must route it, buffer it pending discovery, or drop it.
	SendData(p *pkt.Packet)
	// Recv processes any packet arriving from the MAC: routing messages
	// and data packets alike (including data addressed to this node —
	// source-routed protocols still need to inspect the header). A packet
	// that arrived in a broadcast frame is shared with every other
	// receiver and is read-only: Clone it before changing it, and copy
	// what you keep past the call, since its sender may rebuild it once
	// Released (see pkt.Packet).
	Recv(p *pkt.Packet, from pkt.NodeID, rxPower float64)
	// Snoop observes unicast data frames addressed to other nodes
	// (promiscuous mode). Most protocols ignore it.
	Snoop(p *pkt.Packet, from, to pkt.NodeID, rxPower float64)
	// MacSent confirms a successful link-level transmission to a
	// neighbour (ACKed unicast or completed broadcast).
	MacSent(p *pkt.Packet, to pkt.NodeID)
	// MacFailed reports that the MAC gave up on p toward to: the
	// routing layer's link-breakage signal.
	MacFailed(p *pkt.Packet, to pkt.NodeID)
}

// SinkFunc consumes data packets that arrived at their destination.
type SinkFunc func(p *pkt.Packet, from pkt.NodeID)

// Node is one simulated station: radio + MAC + routing agent + traffic hook.
type Node struct {
	id    pkt.NodeID
	world *World
	Track *mobility.Track
	Radio *phy.Radio
	Mac   *mac.Mac
	Proto Protocol
	rng   *sim.RNG
	sink  SinkFunc
}

var _ mac.UpperLayer = (*Node)(nil)
var _ Env = (*Node)(nil)

// ID implements Env.
func (n *Node) ID() pkt.NodeID { return n.id }

// Now implements Env.
func (n *Node) Now() sim.Time { return n.world.Eng.Now() }

// Engine implements Env.
func (n *Node) Engine() *sim.Engine { return n.world.Eng }

// RNG implements Env.
func (n *Node) RNG() *sim.RNG { return n.rng }

// NumNodes implements Env.
func (n *Node) NumNodes() int { return len(n.world.Nodes) }

// Up reports the node's membership state (false while failed/left), as the
// channel's liveness bitmap holds it.
func (n *Node) Up() bool { return n.world.Channel.NodeUp(n.id) }

// SendMac implements Env: counts the transmission and enqueues at the MAC.
// A down node's emissions vanish uncounted — a dead radio contributes
// neither offered routing load nor data transmissions.
func (n *Node) SendMac(p *pkt.Packet, nextHop pkt.NodeID) {
	if !n.Up() {
		return
	}
	switch p.Kind {
	case pkt.KindRouting:
		n.world.Collector.OnRoutingTx(p)
	case pkt.KindData:
		n.world.Collector.OnDataTx(p)
	}
	if t := n.world.Tracer; t != nil {
		t.Trace(trace.Event{Op: trace.OpSend, At: n.Now(), Node: n.id, Pkt: p, Peer: nextHop})
	}
	n.Mac.Send(p, nextHop)
}

// Deliver implements Env: hands the packet to the local sink.
func (n *Node) Deliver(p *pkt.Packet, from pkt.NodeID) {
	if t := n.world.Tracer; t != nil {
		t.Trace(trace.Event{Op: trace.OpDeliver, At: n.Now(), Node: n.id, Pkt: p, Peer: from})
	}
	if n.sink != nil {
		n.sink(p, from)
	}
}

// Drop implements Env.
func (n *Node) Drop(p *pkt.Packet, reason stats.DropReason) {
	if t := n.world.Tracer; t != nil {
		t.Trace(trace.Event{Op: trace.OpDrop, At: n.Now(), Node: n.id, Pkt: p, Reason: reason})
	}
	n.world.Collector.OnDrop(p, reason)
}

// FlushNextHop implements Env.
func (n *Node) FlushNextHop(to pkt.NodeID) { n.Mac.FlushDest(to) }

// Released implements Env. It is the MAC's frame rule applied to the
// packet a frame carries: a reception ending exactly at the radio's
// HeldUntil may not have been handed up yet, so the clock must be past it.
func (n *Node) Released(p *pkt.Packet) bool {
	return !n.Mac.Holds(p) && n.Now() > n.Radio.HeldUntil()
}

// SetSink installs the traffic sink for data packets addressed to this node.
func (n *Node) SetSink(s SinkFunc) { n.sink = s }

// Originate records and routes an application packet from this node. While
// the node is down the packet is discarded silently: a dead source offers
// no load, so PDR and overhead metrics only measure the up population.
func (n *Node) Originate(p *pkt.Packet) {
	if !n.Up() {
		return
	}
	opt := -1
	if n.world.Oracle != nil {
		opt = n.world.Oracle.HopDist(n.Now(), int32(n.id), int32(p.Dst))
	}
	p.OptimalHops = opt
	n.world.Collector.OnDataOriginated(p, opt)
	n.Proto.SendData(p)
}

// MacRecv implements mac.UpperLayer.
func (n *Node) MacRecv(p *pkt.Packet, from pkt.NodeID, rxPower float64) {
	if t := n.world.Tracer; t != nil {
		t.Trace(trace.Event{Op: trace.OpRecv, At: n.Now(), Node: n.id, Pkt: p, Peer: from})
	}
	n.Proto.Recv(p, from, rxPower)
}

// MacSnoop implements mac.UpperLayer.
func (n *Node) MacSnoop(p *pkt.Packet, from, to pkt.NodeID, rxPower float64) {
	n.Proto.Snoop(p, from, to, rxPower)
}

// MacSent implements mac.UpperLayer.
func (n *Node) MacSent(p *pkt.Packet, to pkt.NodeID) { n.Proto.MacSent(p, to) }

// MacSendFailed implements mac.UpperLayer.
func (n *Node) MacSendFailed(p *pkt.Packet, to pkt.NodeID) { n.Proto.MacFailed(p, to) }

// MacQueueFull implements mac.UpperLayer: interface-queue overflow is a
// congestion loss, not a routing event — the packet is simply charged to the
// drop census.
func (n *Node) MacQueueFull(p *pkt.Packet, to pkt.NodeID) {
	if p.Kind == pkt.KindData {
		n.world.Collector.OnDrop(p, stats.DropQueueFull)
	}
}
