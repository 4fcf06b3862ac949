// Package flood implements TTL-scoped, duplicate-suppressed flooding of
// data packets. It is not one of the paper's protocols; it serves as a
// sanity yardstick (an upper bound on overhead, a mobility-insensitive
// delivery baseline) and as the simplest exerciser of the full stack.
package flood

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Config tunes the flood agent.
type Config struct {
	// TTL bounds flood depth (default pkt.DefaultTTL).
	TTL int
}

// Factory returns a protocol factory for network.Config.
func Factory(cfg Config) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol { return New(cfg) }
}

// Flood is one node's flooding agent.
type Flood struct {
	routing.Base
	cfg  Config
	seen *routing.SeenCache
}

// New creates a flood agent.
func New(cfg Config) *Flood {
	if cfg.TTL <= 0 {
		cfg.TTL = pkt.DefaultTTL
	}
	return &Flood{cfg: cfg, seen: routing.NewSeenCache(60 * sim.Second)}
}

// Start implements network.Protocol.
func (f *Flood) Start(env network.Env) { f.Env = env }

// SendData implements network.Protocol: every data packet is broadcast.
func (f *Flood) SendData(p *pkt.Packet) {
	p.TTL = f.cfg.TTL
	f.seen.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, f.Env.Now())
	f.Env.SendMac(p, pkt.Broadcast)
}

// Recv implements network.Protocol.
func (f *Flood) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	if f.seen.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, f.Env.Now()) {
		return
	}
	// p is shared with every other receiver of the broadcast: this node's
	// hop and TTL changes go on its own copy, which it also relays.
	q := p.Clone()
	q.Hops++
	if q.Dst == f.Env.ID() {
		f.Env.Deliver(q, from)
		return
	}
	q.TTL--
	if q.Expired() {
		f.Env.Drop(q, stats.DropTTL)
		return
	}
	f.Rebroadcast(q)
}

// MacFailed implements network.Protocol: broadcasts never fail at the MAC,
// so only queue overflow lands here; the packet is simply lost.
func (f *Flood) MacFailed(p *pkt.Packet, _ pkt.NodeID) {}
