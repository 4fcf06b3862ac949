package routing

import (
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Requester is the protocol's half of route discovery; the agent that holds
// the Discovery implements it.
type Requester interface {
	// Request makes the try-th attempt (counted from 0) to find dst: it
	// sends whatever the protocol floods and returns how long to wait for
	// an answer before the next try. ok=false gives dst up. A Request may
	// return a wait without sending; the send it put off then costs a try.
	Request(dst pkt.NodeID, try int) (wait sim.Duration, ok bool)
}

// pending is one search in progress.
type pending struct {
	try   int
	timer *sim.Timer
}

// Discovery is the originator's half of on-demand route discovery, shared by
// every protocol that has one: the packets held while a route is sought, one
// retry timer per sought destination, and the rules for abandoning a search
// nobody waits for and for giving up one that found nothing. An agent holds
// it by value and calls Init from Start.
type Discovery struct {
	base    *Base
	req     Requester
	buf     *SendBuffer
	pending map[pkt.NodeID]*pending
}

// Init binds the discovery to its agent; zero bufCap/bufTimeout select the
// send-buffer defaults.
func (d *Discovery) Init(b *Base, req Requester, bufCap int, bufTimeout sim.Duration) {
	d.base, d.req = b, req
	d.buf = NewSendBuffer(bufCap, bufTimeout, func(p *pkt.Packet, timeout bool) {
		if timeout {
			b.Env.Drop(p, stats.DropSendBuffer)
		} else {
			b.Env.Drop(p, stats.DropSendBufFull)
		}
	})
}

// Hold buffers p until a route to its destination is found, starting the
// search if none is running.
func (d *Discovery) Hold(p *pkt.Packet) {
	d.buf.Push(p, d.base.Env.Now())
	d.Start(p.Dst)
}

// Start begins a search for dst unless one is already running.
func (d *Discovery) Start(dst pkt.NodeID) {
	if _, busy := d.pending[dst]; busy {
		return
	}
	if d.pending == nil {
		// Made on first use: most nodes of a large scene never originate.
		d.pending = make(map[pkt.NodeID]*pending)
	}
	pd := &pending{}
	pd.timer = sim.NewTimer(d.base.Env.Engine(), func() { d.timeout(dst) })
	d.pending[dst] = pd
	d.request(dst, pd)
}

// Found ends the search for dst and returns the packets held for it, oldest
// first, for the agent to send along the new route.
func (d *Discovery) Found(dst pkt.NodeID) []*pkt.Packet {
	if pd, ok := d.pending[dst]; ok {
		pd.timer.Stop()
		delete(d.pending, dst)
	}
	return d.buf.PopDest(dst, d.base.Env.Now())
}

// timeout fires when a request went unanswered: the search is abandoned if
// no packet waits for dst any more (HasDest also expires the buffer, before
// the try is counted), else the next try is made.
func (d *Discovery) timeout(dst pkt.NodeID) {
	pd := d.pending[dst]
	if !d.buf.HasDest(dst, d.base.Env.Now()) {
		delete(d.pending, dst)
		return
	}
	pd.try++
	d.request(dst, pd)
}

// request makes pd's current try. The protocol transmits inside Request,
// before the timer is armed: event order is part of the results.
func (d *Discovery) request(dst pkt.NodeID, pd *pending) {
	wait, ok := d.req.Request(dst, pd.try)
	if !ok {
		for _, p := range d.buf.PopDest(dst, d.base.Env.Now()) {
			d.base.Env.Drop(p, stats.DropNoRoute)
		}
		delete(d.pending, dst)
		return
	}
	pd.timer.Reset(wait)
}
