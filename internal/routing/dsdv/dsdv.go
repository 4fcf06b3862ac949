// Package dsdv implements Destination-Sequenced Distance-Vector routing
// (Perkins & Bhagwat 1994), the proactive baseline of the study family.
//
// Each node advertises its full routing table periodically (and changed
// entries in triggered incremental updates). Every route carries a
// destination-generated sequence number: even numbers stamp real routes,
// odd numbers mark broken ones. Freshness (higher sequence) always beats
// metric; among equal sequences the lower metric wins. Link breaks detected
// by the MAC raise the metric to infinity and bump the sequence odd,
// propagating the failure.
package dsdv

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Infinity is the broken-route metric.
const Infinity = 255

// Config tunes DSDV.
type Config struct {
	// UpdateInterval is the periodic full-dump period (default 15 s). A
	// route not refreshed for three periods expires.
	UpdateInterval sim.Duration
	// TriggeredUpdates enables immediate incremental updates on route
	// changes (default on; the ablation bench turns it off).
	DisableTriggered bool
	// MinTriggerGap rate-limits triggered updates (default 1 s).
	MinTriggerGap sim.Duration
}

func (c Config) withDefaults() Config {
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 15 * sim.Second
	}
	if c.MinTriggerGap <= 0 {
		c.MinTriggerGap = sim.Second
	}
	return c
}

// Factory returns a protocol factory.
func Factory(cfg Config) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol { return New(cfg) }
}

// entry is one routing-table row.
type entry struct {
	dst     pkt.NodeID
	nextHop pkt.NodeID
	metric  int
	seq     uint32
	updated sim.Time
	changed bool // pending advertisement in the next triggered update
}

// advert is one advertised route inside an update message.
type advert struct {
	Dst    pkt.NodeID
	Metric int
	Seq    uint32
}

// update is the routing message payload.
type update struct {
	Routes []advert
}

// Truncate implements pkt.Body.
func (u *update) Truncate() { u.Routes = u.Routes[:0] }

// entryBytes is the wire size of one advertised route (addr+seq+metric).
const entryBytes = 9

// DSDV is one node's agent.
type DSDV struct {
	routing.Base
	cfg          Config
	table        map[pkt.NodeID]*entry
	ownSeq       uint32
	lastTrigger  sim.Time
	triggerArmed bool
	// updateMsg is the message full dumps and triggered updates share.
	updateMsg pkt.Slot[update, *update]
	// triggerFn is fireTrigger, bound once so arming a trigger allocates
	// nothing.
	triggerFn sim.EventFunc
}

// New creates a DSDV agent.
func New(cfg Config) *DSDV {
	return &DSDV{cfg: cfg.withDefaults(), table: make(map[pkt.NodeID]*entry)}
}

// Start implements network.Protocol.
func (d *DSDV) Start(env network.Env) {
	d.Env = env
	d.triggerFn = d.fireTrigger
	// First dump after a short random offset so nodes don't all flood at t=0.
	d.Beacon(d.cfg.UpdateInterval, d.cfg.UpdateInterval/4, d.fullDump)
}

// SendData implements network.Protocol. DSDV drops packets without routes —
// there is no on-demand discovery to wait for (this is the behaviour that
// costs DSDV delivery ratio under mobility).
func (d *DSDV) SendData(p *pkt.Packet) {
	d.forward(p)
}

func (d *DSDV) forward(p *pkt.Packet) {
	e := d.lookup(p.Dst)
	if e == nil {
		d.Env.Drop(p, stats.DropNoRoute)
		return
	}
	if p.Hops >= pkt.DefaultTTL {
		d.Env.Drop(p, stats.DropTTL)
		return
	}
	d.Env.SendMac(p, e.nextHop)
}

// lookup returns a valid, unexpired route to dst or nil.
func (d *DSDV) lookup(dst pkt.NodeID) *entry {
	e, ok := d.table[dst]
	if !ok || e.metric >= Infinity {
		return nil
	}
	if d.Env.Now().Sub(e.updated) > 3*d.cfg.UpdateInterval {
		return nil
	}
	return e
}

// Recv implements network.Protocol.
func (d *DSDV) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	if p.Kind == pkt.KindRouting {
		if u, ok := p.Payload.(*update); ok {
			d.handleUpdate(u, from)
		}
		return
	}
	p.Hops++
	if p.Dst == d.Env.ID() {
		d.Env.Deliver(p, from)
		return
	}
	d.forward(p)
}

// handleUpdate applies the DSDV-SQ adoption rules (Broch et al.'s variant,
// which triggers on sequence-number arrival, not just metric changes):
//
//   - ∞-metric (broken) adverts are adopted only from the neighbour we are
//     actually routing through; from anyone else, a node holding a finite
//     route instead re-advertises it — Perkins & Bhagwat's healing rule —
//     so a break only blackholes the subtree that really used the link;
//   - finite adverts win by fresher sequence number, or by shorter metric
//     at the same sequence number, and always replace a broken entry of
//     the same generation;
//   - any adoption marks the entry for the next triggered update.
func (d *DSDV) handleUpdate(u *update, from pkt.NodeID) {
	now := d.Env.Now()
	for _, a := range u.Routes {
		if a.Dst == d.Env.ID() {
			// Someone advertising a route to me; my own seq authority
			// is higher, ignore.
			continue
		}
		cur, ok := d.table[a.Dst]

		if a.Metric >= Infinity {
			switch {
			case ok && cur.metric < Infinity && cur.nextHop == from && routing.SeqNewer(a.Seq, cur.seq):
				cur.metric = Infinity
				cur.seq = a.Seq
				cur.updated = now
				cur.changed = true
				d.scheduleTrigger()
			case ok && cur.metric < Infinity:
				// We hold a working route the breaker does not:
				// spread the good news.
				cur.changed = true
				d.scheduleTrigger()
			}
			continue
		}

		metric := a.Metric + 1
		// A silently-expired entry must not veto fresh information with
		// its stale sequence number.
		expired := ok && now.Sub(cur.updated) > 3*d.cfg.UpdateInterval
		adopt := !ok || expired ||
			routing.SeqNewer(a.Seq, cur.seq) ||
			(a.Seq == cur.seq && metric < cur.metric) ||
			(cur.metric >= Infinity && int32(a.Seq-cur.seq) >= -1)
		if !adopt {
			// Refresh liveness of the route we already use via this
			// neighbour even if the advert is not an improvement.
			if ok && cur.nextHop == from && a.Seq == cur.seq && metric == cur.metric {
				cur.updated = now
			}
			continue
		}
		if !ok {
			cur = &entry{dst: a.Dst}
			d.table[a.Dst] = cur
		}
		seqAdvanced := cur.seq != a.Seq
		changed := cur.metric != metric || cur.nextHop != from || seqAdvanced
		cur.nextHop = from
		cur.metric = metric
		cur.seq = a.Seq
		cur.updated = now
		if changed {
			cur.changed = true
			d.scheduleTrigger()
		}
	}
}

// MacFailed implements network.Protocol: a broken link invalidates every
// route through that neighbour.
func (d *DSDV) MacFailed(p *pkt.Packet, to pkt.NodeID) {
	if to == pkt.Broadcast {
		return // update broadcasts don't fail meaningfully
	}
	broke := false
	for _, e := range d.table {
		if e.nextHop == to && e.metric < Infinity {
			e.metric = Infinity
			e.seq++ // odd: destination-unreachable stamp
			e.changed = true
			broke = true
		}
	}
	if broke {
		d.Env.FlushNextHop(to)
		d.scheduleTrigger()
	}
	if p.Kind == pkt.KindData {
		d.Env.Drop(p, stats.DropRetries)
	}
}

// fullDump broadcasts the entire table.
func (d *DSDV) fullDump() {
	d.ownSeq += 2
	p, m := d.newUpdate(1 + len(d.table))
	m.Routes = append(m.Routes, advert{Dst: d.Env.ID(), Metric: 0, Seq: d.ownSeq})
	for _, e := range d.table {
		m.Routes = append(m.Routes, advert{Dst: e.dst, Metric: e.metric, Seq: e.seq})
		e.changed = false
	}
	d.Env.SendMac(p, pkt.Broadcast)
}

// scheduleTrigger arranges an incremental update, rate-limited.
func (d *DSDV) scheduleTrigger() {
	if d.cfg.DisableTriggered || d.triggerArmed {
		return
	}
	now := d.Env.Now()
	wait := d.Env.RNG().Jitter(100 * sim.Millisecond)
	if since := now.Sub(d.lastTrigger); since < d.cfg.MinTriggerGap {
		wait += d.cfg.MinTriggerGap - since
	}
	d.triggerArmed = true
	d.Env.Engine().ScheduleIn(wait, d.triggerFn)
}

func (d *DSDV) fireTrigger() {
	d.triggerArmed = false
	d.lastTrigger = d.Env.Now()
	n := 0
	for _, e := range d.table {
		if e.changed {
			n++
		}
	}
	if n == 0 {
		return
	}
	p, m := d.newUpdate(n)
	for _, e := range d.table {
		if e.changed {
			m.Routes = append(m.Routes, advert{Dst: e.dst, Metric: e.metric, Seq: e.seq})
			e.changed = false
		}
	}
	d.Env.SendMac(p, pkt.Broadcast)
}

// newUpdate builds an update of n routes, from the slot full dumps and
// triggered updates share, with room for the routes in its body.
func (d *DSDV) newUpdate(n int) (*pkt.Packet, *update) {
	p, m := d.updateMsg.Routing(d.Env, "UPDATE", d.Env.ID(), pkt.Broadcast, 1, 4+entryBytes*n, d.Env.Now())
	if cap(m.Routes) < n {
		m.Routes = make([]advert, 0, n)
	}
	return p, m
}
