// Package dsr implements Dynamic Source Routing (Johnson & Maltz), the
// protocol the IPPS'01 study found most efficient. Routes are discovered by
// flooding route requests that accumulate the traversed node list; the
// destination (or an intermediate node with a cached route) returns the
// complete path, and data packets carry it in their header. There is no
// periodic traffic at all: every byte of overhead is event-driven.
//
// Features reproduced from the CMU study configuration: non-propagating
// (TTL 1) initial request phase, exponential discovery backoff, reply from
// cache, promiscuous route learning, packet salvaging, and per-hop route
// error propagation with cache invalidation.
package dsr

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Config tunes DSR. The zero value is the CMU study configuration.
type Config struct {
	// DisableNonPropagating skips the TTL-1 first discovery phase
	// (ablation).
	DisableNonPropagating bool
	// DisableReplyFromCache stops intermediate nodes answering RREQs from
	// their cache (ablation).
	DisableReplyFromCache bool
	// DisablePromiscuous stops adding overheard source routes to the
	// cache.
	DisablePromiscuous bool
	// SendBufferTimeout bounds how long the origin-side buffer holds a
	// packet (zero: routing.DefaultSendBufferTimeout).
	SendBufferTimeout sim.Duration
}

// CMU study constants.
const (
	cacheCapacity   = 64                   // paths in the path cache
	maxSalvageCount = 15                   // salvage operations per packet
	nonPropTimeout  = 30 * sim.Millisecond // wait after the TTL-1 request
)

// Factory returns a protocol factory.
func Factory(cfg Config) network.ProtocolFactory {
	return func(id pkt.NodeID) network.Protocol { return New(cfg) }
}

// DSR is one node's agent.
type DSR struct {
	routing.SourceRouter
	cfg   Config
	cache *PathCache
	disc  routing.Discovery
}

// New creates a DSR agent.
func New(cfg Config) *DSR { return &DSR{cfg: cfg} }

// Start implements network.Protocol.
func (d *DSR) Start(env network.Env) {
	d.Init(env)
	d.cache = NewPathCache(env.ID(), cacheCapacity)
	d.disc.Init(&d.Base, d, 0, d.cfg.SendBufferTimeout)
}

// Cache exposes the path cache (tests/diagnostics).
func (d *DSR) Cache() *PathCache { return d.cache }

// --- data path -------------------------------------------------------------

// SendData implements network.Protocol.
func (d *DSR) SendData(p *pkt.Packet) {
	route := d.cache.Find(p.Dst)
	if route == nil {
		d.disc.Hold(p)
		return
	}
	routing.AttachRoute(p, route)
	d.forwardAlongRoute(p)
}

// forwardAlongRoute transmits p to the next node of its source route.
func (d *DSR) forwardAlongRoute(p *pkt.Packet) {
	idx, ok := routing.NextHop(p.SrcRoute, d.Env.ID())
	if !ok {
		d.Env.Drop(p, stats.DropNoRoute)
		return
	}
	p.SRIndex = idx
	d.Env.SendMac(p, p.SrcRoute[idx+1])
}

// Recv implements network.Protocol.
func (d *DSR) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	if p.Kind == pkt.KindRouting {
		switch m := p.Payload.(type) {
		case *routing.RouteRequest:
			d.handleRREQ(p, m)
		case *routing.RouteReply:
			d.handleRREP(p, m)
		case *routing.LinkError:
			d.handleRERR(p, m)
		}
		return
	}
	p.Hops++
	// Learn from the carried source route (nodes en route see the whole
	// path).
	if p.SrcRoute != nil {
		d.cache.Add(p.SrcRoute)
	}
	if p.Dst == d.Env.ID() {
		d.Env.Deliver(p, from)
		return
	}
	if p.Hops >= pkt.DefaultTTL {
		d.Env.Drop(p, stats.DropTTL)
		return
	}
	d.forwardAlongRoute(p)
}

// --- discovery ---------------------------------------------------------------

// Request implements routing.Requester: a non-propagating (TTL 1) first
// try with a short wait, then network-wide floods whose wait doubles from
// routing.DiscoveryBase up to routing.DiscoveryMax.
func (d *DSR) Request(target pkt.NodeID, try int) (sim.Duration, bool) {
	if try > routing.MaxRequestRetries {
		return 0, false
	}
	if !d.cfg.DisableNonPropagating {
		if try == 0 {
			d.Originate(target, 1)
			return nonPropTimeout, true
		}
		try-- // the non-propagating try is not a doubling
	}
	d.Originate(target, pkt.DefaultTTL)
	return routing.Backoff(routing.DiscoveryBase, routing.DiscoveryMax, try), true
}

func (d *DSR) handleRREQ(p *pkt.Packet, m *routing.RouteRequest) {
	record := d.Accept(m)
	if record == nil {
		return
	}
	// The accumulated record is a path we can cache (origin..prev hop).
	d.cache.Add(m.Record)

	if m.Target == d.Env.ID() {
		d.sendRREP(record)
		return
	}
	if !d.cfg.DisableReplyFromCache {
		if tail := d.cache.Find(m.Target); tail != nil {
			// Splice record + cached tail if the result is loop-free.
			if full := spliceLoopFree(record, tail); full != nil {
				d.sendRREP(full)
				return
			}
		}
	}
	d.Reflood(p, m, record)
}

// spliceLoopFree joins head (…,me) and tail (me,…,target) rejecting overlap.
func spliceLoopFree(head, tail []pkt.NodeID) []pkt.NodeID {
	full := append(append([]pkt.NodeID(nil), head...), tail[1:]...)
	seen := make(map[pkt.NodeID]struct{}, len(full))
	for _, n := range full {
		if _, dup := seen[n]; dup {
			return nil
		}
		seen[n] = struct{}{}
	}
	return full
}

// sendRREP learns route (origin..target, through this node) and returns it
// to the origin.
func (d *DSR) sendRREP(route []pkt.NodeID) {
	d.cache.Add(route)
	d.SendReply(route)
}

func (d *DSR) handleRREP(p *pkt.Packet, m *routing.RouteReply) {
	d.cache.Add(m.Route)
	if p.Dst == d.Env.ID() {
		// Discovery satisfied for the route's target.
		for _, bp := range d.disc.Found(m.Route[len(m.Route)-1]) {
			d.SendData(bp)
		}
		return
	}
	if !d.Relay(p) {
		d.Env.Drop(p, stats.DropNoRoute)
	}
}

// --- maintenance ----------------------------------------------------------

// MacFailed implements network.Protocol: link breakage → cache invalidation,
// route error to the source, salvage attempt.
func (d *DSR) MacFailed(p *pkt.Packet, to pkt.NodeID) {
	if to == pkt.Broadcast {
		return
	}
	me := d.Env.ID()
	d.cache.RemoveLink(me, to)
	d.Env.FlushNextHop(to)

	if p.Kind == pkt.KindRouting {
		return // lost replies/errors are not recovered
	}
	// Route error back to the source (unless we are the source).
	if p.Src != me {
		d.sendRERR(p, to)
	}
	d.salvage(p, to)
}

// salvage re-routes a failed data packet from the cache, or re-buffers it at
// the origin, or drops it.
func (d *DSR) salvage(p *pkt.Packet, failedHop pkt.NodeID) {
	me := d.Env.ID()
	if alt := d.cache.Find(p.Dst); alt != nil && p.Salvaged < maxSalvageCount && alt[1] != failedHop {
		p.Salvaged++
		routing.AttachRoute(p, alt)
		d.forwardAlongRoute(p)
		return
	}
	if p.Src == me {
		d.disc.Hold(p)
		return
	}
	d.Env.Drop(p, stats.DropSalvageFail)
}

// sendRERR reports the broken link to failedHop to p's source, along the
// reversed prefix of p's source route (or a cached route as fallback).
func (d *DSR) sendRERR(p *pkt.Packet, failedHop pkt.NodeID) {
	var back []pkt.NodeID
	if p.SrcRoute != nil && p.SRIndex >= 1 && p.SRIndex < len(p.SrcRoute) {
		back = routing.ReversePrefix(p.SrcRoute, p.SRIndex)
	} else {
		back = d.cache.Find(p.Src) // nil when unknown: nothing is sent
	}
	d.SendLinkError(p.Src, d.Env.ID(), failedHop, back)
}

func (d *DSR) handleRERR(p *pkt.Packet, m *routing.LinkError) {
	d.cache.RemoveLink(m.A, m.B)
	if p.Dst != d.Env.ID() {
		d.Relay(p)
	}
}

// Snoop implements network.Protocol: promiscuous route learning.
func (d *DSR) Snoop(p *pkt.Packet, from, to pkt.NodeID, _ float64) {
	if d.cfg.DisablePromiscuous {
		return
	}
	if p.SrcRoute != nil {
		d.cache.Add(p.SrcRoute)
	}
	if m, ok := p.Payload.(*routing.RouteReply); ok {
		d.cache.Add(m.Route)
	}
	if m, ok := p.Payload.(*routing.LinkError); ok {
		d.cache.RemoveLink(m.A, m.B)
	}
}
