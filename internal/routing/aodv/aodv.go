// Package aodv implements the Ad hoc On-demand Distance Vector protocol
// (Perkins, Belding-Royer & Das, RFC 3561): expanding-ring route request
// floods, destination sequence numbers, reverse-path route replies,
// precursor lists and route error propagation. Link breaks are detected by
// the MAC layer (no HELLO beacons by default, matching the CMU study
// configuration).
//
// The package also hosts the preemptive variant (PAODV): when a data packet
// arrives with received power below a warning threshold — the link is about
// to stretch beyond range — the forwarding node warns the source, which
// re-discovers the route before it actually breaks.
package aodv

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Config tunes AODV. The zero value is the CMU study configuration.
type Config struct {
	// DisableExpandingRing floods every request at netDiameter
	// (ablation bench).
	DisableExpandingRing bool

	// Preemptive enables PAODV behaviour. WarnPower is the received
	// power (Watts) below which a forwarding node warns the source.
	Preemptive bool
	WarnPower  float64

	// HelloInterval enables periodic HELLO beacons for link monitoring
	// (RFC 3561 §6.9). Zero (the default, matching the CMU study
	// configuration) relies purely on link-layer feedback. A node
	// beacons only while it has active routes, and declares a neighbour
	// lost after allowedHelloLoss missed intervals.
	HelloInterval sim.Duration

	// LocalRepair lets an intermediate node that loses a link attempt to
	// re-discover the destination itself (RFC 3561 §6.12), salvaging the
	// failed packet instead of dropping it. The RERR toward precursors
	// is still sent immediately (simplified from the RFC's deferred
	// variant — documented in DESIGN.md).
	LocalRepair bool
}

// RFC 3561 §10 constants at the values of the CMU study.
const (
	activeRouteTimeout = 3 * sim.Second       // unused routes expire
	nodeTraversalTime  = 40 * sim.Millisecond // per-hop latency estimate
	netDiameter        = 35                   // flood TTL bound
	// rreqRetries is the number of network-wide retries after the
	// expanding-ring phase.
	rreqRetries = 2
	// The expanding-ring search starts at ttlStart and grows by
	// ttlIncrement up to ttlThreshold before flooding at netDiameter.
	ttlStart, ttlIncrement, ttlThreshold = 1, 2, 7
	// allowedHelloLoss missed HELLO intervals declare a neighbour lost.
	allowedHelloLoss = 2
	// warnGap rate-limits PAODV warnings per flow source, and a source's
	// warning-driven refreshes per destination.
	warnGap = sim.Second
	// netTraversalTime estimates a round trip across the network
	// (NET_TRAVERSAL_TIME = 2 · NODE_TRAVERSAL_TIME · NET_DIAMETER).
	netTraversalTime = 2 * nodeTraversalTime * netDiameter
)

// Factory returns a protocol factory.
func Factory(cfg Config) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol { return New(cfg) }
}

// Message body sizes in bytes (RFC 3561 §5).
const (
	rreqBytes = 24
	rrepBytes = 20
	rerrBase  = 4
	rerrDest  = 8
	warnBytes = 12
)

// rreq is a route request payload.
type rreq struct {
	Origin      pkt.NodeID
	OriginSeq   uint32
	ID          uint32
	Dst         pkt.NodeID
	DstSeq      uint32
	DstSeqValid bool
	HopCount    int
}

// rrep is a route reply payload.
type rrep struct {
	Origin   pkt.NodeID // who asked
	Dst      pkt.NodeID // route target
	DstSeq   uint32
	HopCount int
}

// rerr reports newly unreachable destinations.
type rerr struct {
	Unreachable []unreach
}

type unreach struct {
	Dst pkt.NodeID
	Seq uint32
}

// warn is the PAODV preemptive route-degradation notice sent toward the
// data source.
type warn struct {
	FlowDst pkt.NodeID // the destination whose route is weakening
}

// hello is the periodic liveness beacon (hello mode only).
type hello struct{}

// route is one routing-table row.
type route struct {
	dst        pkt.NodeID
	nextHop    pkt.NodeID
	hops       int
	seq        uint32
	seqValid   bool
	valid      bool
	expires    sim.Time
	precursors map[pkt.NodeID]struct{}
}

// AODV is one node's agent.
type AODV struct {
	routing.Base
	cfg Config

	seq    uint32
	rreqID uint32

	table map[pkt.NodeID]*route
	disc  routing.Discovery
	seen  *routing.SeenCache

	lastWarn map[pkt.NodeID]sim.Time // per flow-source rate limit (preemptive)
	warned   map[pkt.NodeID]sim.Time // at source: per-dst refresh rate limit

	lastHeard map[pkt.NodeID]sim.Time // neighbour liveness (hello mode)

	rerrWindow sim.Time // RERR rate-limit window start
	rerrCount  int
}

// New creates an AODV agent.
func New(cfg Config) *AODV {
	return &AODV{
		cfg:       cfg,
		table:     make(map[pkt.NodeID]*route),
		seen:      routing.NewSeenCache(10 * sim.Second),
		lastWarn:  make(map[pkt.NodeID]sim.Time),
		warned:    make(map[pkt.NodeID]sim.Time),
		lastHeard: make(map[pkt.NodeID]sim.Time),
	}
}

// Start implements network.Protocol.
func (a *AODV) Start(env network.Env) {
	a.Env = env
	a.disc.Init(&a.Base, a, 0, 0)
	if a.cfg.HelloInterval > 0 {
		a.Beacon(a.cfg.HelloInterval, a.cfg.HelloInterval, a.helloTick)
	}
}

// helloTick beacons (when routes are active) and expires silent neighbours.
func (a *AODV) helloTick() {
	now := a.Env.Now()
	// Expire neighbours we route through but have not heard from.
	deadline := allowedHelloLoss * a.cfg.HelloInterval
	for nb, last := range a.lastHeard {
		if now.Sub(last) <= deadline {
			continue
		}
		delete(a.lastHeard, nb)
		a.linkBroke(nb)
	}
	if !a.hasActiveRoutes() {
		return
	}
	p := pkt.RoutingPacket("HELLO", a.Env.ID(), pkt.Broadcast, 1, rrepBytes, now)
	p.Payload = &hello{}
	a.Env.SendMac(p, pkt.Broadcast)
}

func (a *AODV) hasActiveRoutes() bool {
	now := a.Env.Now()
	for _, r := range a.table {
		if r.valid && !now.After(r.expires) {
			return true
		}
	}
	return false
}

// --- data path ----------------------------------------------------------

// SendData implements network.Protocol.
func (a *AODV) SendData(p *pkt.Packet) {
	if r := a.validRoute(p.Dst); r != nil {
		a.refresh(r)
		a.Env.SendMac(p, r.nextHop)
		return
	}
	a.disc.Hold(p)
}

// Recv implements network.Protocol.
func (a *AODV) Recv(p *pkt.Packet, from pkt.NodeID, rxPower float64) {
	if a.cfg.HelloInterval > 0 {
		a.lastHeard[from] = a.Env.Now()
	}
	if p.Kind == pkt.KindRouting {
		switch m := p.Payload.(type) {
		case *rreq:
			a.handleRREQ(p, m, from)
		case *rrep:
			a.handleRREP(p, m, from)
		case *rerr:
			a.handleRERR(m, from)
		case *warn:
			a.handleWarn(p, m)
		case *hello:
			// Liveness already recorded above.
		}
		return
	}
	p.Hops++
	if a.cfg.Preemptive && rxPower < a.cfg.WarnPower && p.Src != a.Env.ID() {
		a.maybeWarn(p)
	}
	if p.Dst == a.Env.ID() {
		a.Env.Deliver(p, from)
		return
	}
	if p.Hops >= pkt.DefaultTTL {
		a.Env.Drop(p, stats.DropTTL)
		return
	}
	r := a.validRoute(p.Dst)
	if r == nil {
		// Forwarding failure: drop and tell upstream.
		a.Env.Drop(p, stats.DropNoRoute)
		a.sendRERRFor(p.Dst)
		return
	}
	a.refresh(r)
	// Keep the reverse route to the source alive too (RFC 3561 §6.2).
	if rev, ok := a.table[p.Src]; ok && rev.valid {
		a.refresh(rev)
	}
	a.Env.SendMac(p, r.nextHop)
}

// --- discovery ----------------------------------------------------------

// Request implements routing.Requester: an expanding ring (ttlStart, then
// +ttlIncrement up to ttlThreshold), one flood at netDiameter, then
// rreqRetries more whose wait doubles each time (RFC 3561 binary
// exponential backoff).
func (a *AODV) Request(dst pkt.NodeID, try int) (sim.Duration, bool) {
	ttl, retries := ttlStart, 0
	if a.cfg.DisableExpandingRing {
		ttl = netDiameter
	}
	for ; try > 0; try-- {
		switch {
		case ttl < ttlThreshold && !a.cfg.DisableExpandingRing:
			ttl += ttlIncrement
			if ttl > ttlThreshold {
				ttl = netDiameter
			}
		case ttl < netDiameter:
			ttl = netDiameter
		default:
			retries++
		}
	}
	if retries > rreqRetries {
		return 0, false // unreachable
	}
	a.seq++
	a.rreqID++
	m := &rreq{
		Origin:    a.Env.ID(),
		OriginSeq: a.seq,
		ID:        a.rreqID,
		Dst:       dst,
	}
	if r, ok := a.table[dst]; ok && r.seqValid {
		m.DstSeq, m.DstSeqValid = r.seq, true
	}
	a.seen.Seen(routing.SeenKey{Origin: m.Origin, ID: m.ID}, a.Env.Now())
	p := pkt.RoutingPacket("RREQ", a.Env.ID(), pkt.Broadcast, ttl, rreqBytes, a.Env.Now())
	p.Payload = m
	a.Env.SendMac(p, pkt.Broadcast)
	// Ring traversal time: out and back across ttl hops plus slack.
	wait := 2 * nodeTraversalTime * sim.Duration(ttl+2)
	return wait << retries, true
}

func (a *AODV) handleRREQ(p *pkt.Packet, m *rreq, from pkt.NodeID) {
	if m.Origin == a.Env.ID() {
		return
	}
	if a.seen.Seen(routing.SeenKey{Origin: m.Origin, ID: m.ID}, a.Env.Now()) {
		return
	}
	// Install/refresh the reverse route to the origin.
	a.installRoute(m.Origin, from, m.HopCount+1, m.OriginSeq, true)

	if m.Dst == a.Env.ID() {
		// RFC 3561 §6.6.1: the destination advances its sequence number
		// before replying (and never lets it fall behind a requested
		// value), so every RREP supersedes earlier knowledge of us.
		if m.DstSeqValid && routing.SeqNewer(m.DstSeq, a.seq) {
			a.seq = m.DstSeq
		}
		a.seq++
		a.sendRREP(m.Origin, a.Env.ID(), a.seq, 0, from)
		return
	}
	if r := a.validRoute(m.Dst); r != nil && r.seqValid &&
		(!m.DstSeqValid || !routing.SeqNewer(m.DstSeq, r.seq)) {
		// Intermediate reply from a fresh-enough route.
		a.sendRREP(m.Origin, m.Dst, r.seq, r.hops, from)
		// The next hop toward the destination becomes a precursor of
		// the origin-bound traffic (and vice versa).
		r.precursors[from] = struct{}{}
		return
	}
	// Re-flood.
	p2 := p.Clone()
	p2.TTL--
	if p2.Expired() {
		return
	}
	m2 := *m
	m2.HopCount++
	p2.Payload = &m2
	a.Rebroadcast(p2)
}

func (a *AODV) sendRREP(origin, dst pkt.NodeID, dstSeq uint32, hops int, nextHop pkt.NodeID) {
	p := pkt.RoutingPacket("RREP", a.Env.ID(), origin, pkt.DefaultTTL, rrepBytes, a.Env.Now())
	p.Payload = &rrep{Origin: origin, Dst: dst, DstSeq: dstSeq, HopCount: hops}
	a.Env.SendMac(p, nextHop)
}

func (a *AODV) handleRREP(p *pkt.Packet, m *rrep, from pkt.NodeID) {
	// Install/refresh the forward route to the replied destination.
	a.installRoute(m.Dst, from, m.HopCount+1, m.DstSeq, true)

	if m.Origin == a.Env.ID() {
		// Discovery complete: release buffered traffic.
		a.warned[m.Dst] = sim.Time(0)
		for _, bp := range a.disc.Found(m.Dst) {
			a.SendData(bp)
		}
		return
	}
	// Forward the RREP along the reverse route, growing precursor lists.
	rev := a.validRoute(m.Origin)
	if rev == nil {
		a.Env.Drop(p, stats.DropNoRoute)
		return
	}
	// No forward entry exists when we are m.Dst ourselves (installRoute
	// never installs a route to self): an intermediate node replied on our
	// behalf and its reverse path to the origin leads through us.
	if fwd := a.table[m.Dst]; fwd != nil {
		fwd.precursors[rev.nextHop] = struct{}{}
	}
	rev.precursors[from] = struct{}{}
	m2 := *m
	m2.HopCount++
	p2 := p.Clone()
	p2.Payload = &m2
	a.Env.SendMac(p2, rev.nextHop)
}

// --- error handling -------------------------------------------------------

// MacFailed implements network.Protocol. Only data-packet failures count as
// link breakage: a lost RREP/WARN under congestion is recovered by the
// discovery timeout, and treating it as a broken link turns transient
// collisions into network-wide RERR storms (congestion collapse).
func (a *AODV) MacFailed(p *pkt.Packet, to pkt.NodeID) {
	if to == pkt.Broadcast {
		return
	}
	if p.Kind != pkt.KindData {
		return
	}
	a.linkBroke(to)
	if p.Src == a.Env.ID() || a.cfg.LocalRepair {
		// The origin — or, under local repair, any node — holds the packet
		// and re-discovers the destination from here; the RREP drain path
		// forwards it.
		a.disc.Hold(p)
		return
	}
	a.Env.Drop(p, stats.DropRetries)
}

// linkBroke invalidates all routes through the dead neighbour and notifies
// precursors with a RERR.
func (a *AODV) linkBroke(nb pkt.NodeID) {
	var lost []unreach
	notify := make(map[pkt.NodeID]struct{})
	for _, r := range a.table {
		if r.valid && r.nextHop == nb {
			r.valid = false
			r.seq++
			lost = append(lost, unreach{Dst: r.dst, Seq: r.seq})
			for pcur := range r.precursors {
				notify[pcur] = struct{}{}
			}
		}
	}
	if len(lost) == 0 {
		return
	}
	a.Env.FlushNextHop(nb)
	if len(notify) == 0 {
		return
	}
	a.broadcastRERR(lost)
}

// sendRERRFor reports a single unreachable destination (forwarding miss).
func (a *AODV) sendRERRFor(dst pkt.NodeID) {
	seq := uint32(0)
	if r, ok := a.table[dst]; ok {
		seq = r.seq
	}
	a.broadcastRERR([]unreach{{Dst: dst, Seq: seq}})
}

func (a *AODV) broadcastRERR(lost []unreach) {
	// RERR_RATELIMIT (RFC 3561 §10): at most 10 RERRs per second.
	now := a.Env.Now()
	if now.Sub(a.rerrWindow) >= sim.Second {
		a.rerrWindow = now
		a.rerrCount = 0
	}
	a.rerrCount++
	if a.rerrCount > 10 {
		return
	}
	body := rerrBase + rerrDest*len(lost)
	p := pkt.RoutingPacket("RERR", a.Env.ID(), pkt.Broadcast, 1, body, now)
	p.Payload = &rerr{Unreachable: lost}
	a.Env.SendMac(p, pkt.Broadcast)
}

func (a *AODV) handleRERR(m *rerr, from pkt.NodeID) {
	var propagate []unreach
	notify := false
	for _, u := range m.Unreachable {
		r, ok := a.table[u.Dst]
		if !ok || !r.valid || r.nextHop != from {
			continue
		}
		r.valid = false
		r.seq = u.Seq
		propagate = append(propagate, u)
		if len(r.precursors) > 0 {
			notify = true
		}
	}
	if notify && len(propagate) > 0 {
		a.broadcastRERR(propagate)
	}
}

// --- preemptive (PAODV) ---------------------------------------------------

// maybeWarn sends a route-degradation warning back toward the data source.
func (a *AODV) maybeWarn(p *pkt.Packet) {
	now := a.Env.Now()
	if last, ok := a.lastWarn[p.Src]; ok && now.Sub(last) < warnGap {
		return
	}
	rev := a.validRoute(p.Src)
	if rev == nil {
		return
	}
	a.lastWarn[p.Src] = now
	wp := pkt.RoutingPacket("WARN", a.Env.ID(), p.Src, pkt.DefaultTTL, warnBytes, now)
	wp.Payload = &warn{FlowDst: p.Dst}
	a.Env.SendMac(wp, rev.nextHop)
}

func (a *AODV) handleWarn(p *pkt.Packet, m *warn) {
	if p.Dst != a.Env.ID() {
		// Forward toward the source.
		rev := a.validRoute(p.Dst)
		if rev == nil {
			return
		}
		a.Env.SendMac(p.Clone(), rev.nextHop)
		return
	}
	// At the source: refresh the route before it breaks, rate-limited.
	now := a.Env.Now()
	if last, ok := a.warned[m.FlowDst]; ok && now.Sub(last) < warnGap {
		return
	}
	a.warned[m.FlowDst] = now
	a.disc.Start(m.FlowDst)
}

// --- table helpers ----------------------------------------------------------

func (a *AODV) validRoute(dst pkt.NodeID) *route {
	r, ok := a.table[dst]
	if !ok || !r.valid || a.Env.Now().After(r.expires) {
		return nil
	}
	return r
}

func (a *AODV) refresh(r *route) {
	a.extend(r, activeRouteTimeout)
}

func (a *AODV) extend(r *route, lifetime sim.Duration) {
	exp := a.Env.Now().Add(lifetime)
	if exp.After(r.expires) {
		r.expires = exp
	}
}

// installRoute adopts a route if it is fresher (higher seq), shorter at the
// same freshness, or repairs an invalid/unknown entry.
func (a *AODV) installRoute(dst, nextHop pkt.NodeID, hops int, seq uint32, seqValid bool) {
	if dst == a.Env.ID() {
		return
	}
	r, ok := a.table[dst]
	if !ok {
		r = &route{dst: dst, precursors: make(map[pkt.NodeID]struct{})}
		a.table[dst] = r
	}
	// An expired entry is as dead as an invalidated one; keeping its stale
	// sequence number authoritative would let a silently-expired reverse
	// route veto every future RREP for the destination.
	usable := r.valid && !a.Env.Now().After(r.expires)
	adopt := !usable ||
		(seqValid && r.seqValid && routing.SeqNewer(seq, r.seq)) ||
		(seqValid && r.seqValid && seq == r.seq && hops < r.hops) ||
		!r.seqValid
	if !adopt {
		return
	}
	r.nextHop = nextHop
	r.hops = hops
	r.seq = seq
	r.seqValid = seqValid
	r.valid = true
	// Fresh installations (reverse routes during discovery in particular)
	// must outlive a full request/reply round trip, or replies from far
	// destinations die on expired reverse paths (RFC 3561 §6.5).
	a.extend(r, max(activeRouteTimeout, 2*netTraversalTime))
}

// NextHop exposes the active next hop toward dst (tests/diagnostics).
func (a *AODV) NextHop(dst pkt.NodeID) (pkt.NodeID, bool) {
	r := a.validRoute(dst)
	if r == nil {
		return 0, false
	}
	return r.nextHop, true
}
