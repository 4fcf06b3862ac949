// Package cbrp implements the Cluster Based Routing Protocol (Jiang, Li &
// Tay), the third protocol of the IPPS'01 comparison. Nodes organise into
// 2-hop-diameter clusters via periodic HELLO beacons and lowest-ID election.
// Route requests are re-flooded only by cluster heads and gateway nodes,
// cutting flood cost relative to blind flooding; discovered routes are
// carried in packet headers like DSR. Two CBRP optimizations are included:
// local repair from 2-hop neighbour knowledge and en-route path shortening.
package cbrp

import (
	"slices"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Config tunes CBRP.
type Config struct {
	// HelloInterval is the beacon period (default 2 s). A neighbour
	// unheard for three periods expires.
	HelloInterval sim.Duration
	// DisableClusterFlooding makes every node re-flood RREQs (ablation:
	// quantifies the saving from head/gateway-restricted flooding).
	DisableClusterFlooding bool
	// DisableLocalRepair turns off 2-hop route repair.
	DisableLocalRepair bool
	// SendBufferTimeout bounds how long the origin-side buffer holds a
	// packet (zero: routing.DefaultSendBufferTimeout).
	SendBufferTimeout sim.Duration
}

// routeCacheTTL bounds how long a source reuses a discovered route before a
// fresh discovery must re-validate it; link failures invalidate earlier.
const routeCacheTTL = 10 * sim.Second

func (c Config) withDefaults() Config {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 2 * sim.Second
	}
	return c
}

// Factory returns a protocol factory.
func Factory(cfg Config) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol { return New(cfg) }
}

// hello is the periodic beacon.
type hello struct {
	Status    NodeStatus
	Heads     []pkt.NodeID
	Neighbors []pkt.NodeID
}

// helloBase is the fixed part of a hello's wire size (4-byte addresses; the
// beacon carries status + heads + neighbour list).
const helloBase = 4

// CBRP is one node's agent.
type CBRP struct {
	routing.SourceRouter
	cfg Config

	status    NodeStatus
	neighbors *neighborTable
	myHeads   map[pkt.NodeID]bool

	disc routing.Discovery
	// nextRREQ rate-limits discovery floods per target: a freshly
	// repaired route that immediately fails again must not re-flood the
	// network at MAC speed.
	nextRREQ map[pkt.NodeID]sim.Time
	// routes caches discovered source routes at the origin so that a
	// 4 pkt/s CBR flow does not re-flood per packet.
	routes map[pkt.NodeID]cachedRoute
}

// New creates a CBRP agent.
func New(cfg Config) *CBRP {
	return &CBRP{
		cfg:       cfg.withDefaults(),
		status:    Undecided,
		neighbors: newNeighborTable(),
		myHeads:   make(map[pkt.NodeID]bool),
		nextRREQ:  make(map[pkt.NodeID]sim.Time),
		routes:    make(map[pkt.NodeID]cachedRoute),
	}
}

// Start implements network.Protocol.
func (c *CBRP) Start(env network.Env) {
	c.Init(env)
	c.disc.Init(&c.Base, c, 0, c.cfg.SendBufferTimeout)
	c.Beacon(c.cfg.HelloInterval, c.cfg.HelloInterval/2, c.beacon)
}

// Status exposes the clustering role (tests/diagnostics).
func (c *CBRP) Status() NodeStatus { return c.status }

// Heads exposes the current cluster heads of this node, sorted ascending
// (tests/diagnostics).
func (c *CBRP) Heads() []pkt.NodeID {
	return c.headSet()
}

// --- beaconing & clustering -----------------------------------------------

func (c *CBRP) beacon() {
	now := c.Env.Now()
	c.neighbors.expire(now)
	c.refreshRole()
	h := &hello{
		Status:    c.status,
		Heads:     c.headSet(),
		Neighbors: c.neighbors.ids(),
	}
	body := helloBase + 4*len(h.Heads) + 5*len(h.Neighbors)
	p := pkt.RoutingPacket("HELLO", c.Env.ID(), pkt.Broadcast, 1, body, now)
	p.Payload = h
	c.Env.SendMac(p, pkt.Broadcast)
}

func (c *CBRP) refreshRole() {
	me := c.Env.ID()
	heads := c.neighbors.headNeighbors()
	switch {
	case c.status == Head:
		// A head abdicates only when another head with a lower ID is in
		// range (CBRP contention resolution).
		for _, h := range heads {
			if h < me {
				c.status = Member
				break
			}
		}
	default:
		c.status = electStatus(me, c.neighbors)
	}
	// Recompute cluster membership.
	clear(c.myHeads)
	if c.status == Head {
		c.myHeads[me] = true
		return
	}
	for _, h := range heads {
		c.myHeads[h] = true
	}
}

// isGateway reports whether this node bridges clusters: it hears multiple
// heads, or hears a member of a foreign cluster.
func (c *CBRP) isGateway() bool {
	if c.status == Head {
		return false
	}
	if len(c.neighbors.headNeighbors()) >= 2 {
		return true
	}
	return len(c.neighbors.foreignHeads(c.myHeads)) > 0
}

// shouldReflood decides whether this node participates in RREQ flooding.
func (c *CBRP) shouldReflood() bool {
	if c.cfg.DisableClusterFlooding {
		return true
	}
	return c.status == Head || c.isGateway()
}

func (c *CBRP) headSet() []pkt.NodeID {
	if len(c.myHeads) == 0 {
		return nil
	}
	out := make([]pkt.NodeID, 0, len(c.myHeads))
	for h := range c.myHeads {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// --- data path --------------------------------------------------------------

// cachedRoute is one origin-side route-cache entry.
type cachedRoute struct {
	route   []pkt.NodeID
	expires sim.Time
}

// SendData implements network.Protocol.
func (c *CBRP) SendData(p *pkt.Packet) {
	now := c.Env.Now()
	// One-hop shortcut: the neighbour table is a free route.
	if c.neighbors.fresh(p.Dst, now, c.cfg.HelloInterval) {
		routing.AttachRoute(p, []pkt.NodeID{c.Env.ID(), p.Dst})
		c.Env.SendMac(p, p.Dst)
		return
	}
	if cr, ok := c.routes[p.Dst]; ok && cr.expires.After(now) {
		routing.AttachRoute(p, append([]pkt.NodeID(nil), cr.route...))
		c.forwardData(p)
		return
	}
	c.disc.Hold(p)
}

// cacheRoute installs an origin-side route.
func (c *CBRP) cacheRoute(dst pkt.NodeID, route []pkt.NodeID) {
	c.routes[dst] = cachedRoute{
		route:   append([]pkt.NodeID(nil), route...),
		expires: c.Env.Now().Add(routeCacheTTL),
	}
}

// invalidateRoutesVia drops cached routes whose first hop is nb or that
// traverse the link me→nb.
func (c *CBRP) invalidateRoutesVia(a, b pkt.NodeID) {
	for dst, cr := range c.routes {
		for i := 0; i+1 < len(cr.route); i++ {
			if cr.route[i] == a && cr.route[i+1] == b {
				delete(c.routes, dst)
				break
			}
		}
	}
}

// forwardData sends p along its source route, applying shortening.
func (c *CBRP) forwardData(p *pkt.Packet) {
	idx, ok := routing.NextHop(p.SrcRoute, c.Env.ID())
	if !ok {
		c.Env.Drop(p, stats.DropNoRoute)
		return
	}
	next := idx + 1
	// Skip ahead to the farthest downstream node that is a fresh direct
	// neighbour (stale entries would break the pipe).
	for j := len(p.SrcRoute) - 1; j > next; j-- {
		if c.neighbors.fresh(p.SrcRoute[j], c.Env.Now(), c.cfg.HelloInterval) {
			next = j
			break
		}
	}
	p.SRIndex = idx
	c.Env.SendMac(p, p.SrcRoute[next])
}

// Recv implements network.Protocol.
func (c *CBRP) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	if p.Kind == pkt.KindRouting {
		switch m := p.Payload.(type) {
		case *hello:
			c.neighbors.update(m, from, c.Env.Now(), c.Env.Now().Add(3*c.cfg.HelloInterval))
		case *routing.RouteRequest:
			c.handleRREQ(p, m)
		case *routing.RouteReply:
			c.handleRREP(p, m)
		case *routing.LinkError:
			c.handleRERR(p, m)
		}
		return
	}
	p.Hops++
	if p.Dst == c.Env.ID() {
		c.Env.Deliver(p, from)
		return
	}
	if p.Hops >= pkt.DefaultTTL {
		c.Env.Drop(p, stats.DropTTL)
		return
	}
	c.forwardData(p)
}

// --- discovery ---------------------------------------------------------------

// Request implements routing.Requester: network-wide floods whose wait
// doubles from routing.DiscoveryBase up to routing.DiscoveryMax. A search
// that starts inside the target's cooldown waits the cooldown out first, and
// that wait counts as try 0: its first flood already goes out with the
// doubled wait.
func (c *CBRP) Request(target pkt.NodeID, try int) (sim.Duration, bool) {
	now := c.Env.Now()
	if allowed := c.nextRREQ[target]; try == 0 && allowed.After(now) {
		return allowed.Sub(now), true
	}
	if try > routing.MaxRequestRetries {
		return 0, false
	}
	c.nextRREQ[target] = now.Add(routing.DiscoveryBase / 2)
	c.Originate(target, pkt.DefaultTTL)
	return routing.Backoff(routing.DiscoveryBase, routing.DiscoveryMax, try), true
}

func (c *CBRP) handleRREQ(p *pkt.Packet, m *routing.RouteRequest) {
	record := c.Accept(m)
	if record == nil {
		return
	}
	if m.Target == c.Env.ID() {
		c.SendReply(record)
		return
	}
	// The target may be a direct neighbour: a cluster head (which knows
	// its whole cluster) completes the route without further flooding.
	// Restricting the shortcut to heads keeps one answer per cluster
	// rather than one per common neighbour. The head appended the target
	// itself, so it sits one short of the end of the route it returns.
	if c.status == Head && c.neighbors.fresh(m.Target, c.Env.Now(), c.cfg.HelloInterval) {
		c.SendReply(append(record, m.Target))
		return
	}
	if c.shouldReflood() {
		c.Reflood(p, m, record)
	}
}

func (c *CBRP) handleRREP(p *pkt.Packet, m *routing.RouteReply) {
	if p.Dst == c.Env.ID() {
		target := m.Route[len(m.Route)-1]
		c.cacheRoute(target, m.Route)
		for _, bp := range c.disc.Found(target) {
			routing.AttachRoute(bp, append([]pkt.NodeID(nil), m.Route...))
			c.forwardData(bp)
		}
		return
	}
	if !c.Relay(p) {
		c.Env.Drop(p, stats.DropNoRoute)
	}
}

// --- maintenance --------------------------------------------------------------

// MacFailed implements network.Protocol.
func (c *CBRP) MacFailed(p *pkt.Packet, to pkt.NodeID) {
	if to == pkt.Broadcast {
		return
	}
	// The neighbour is gone as far as we can tell.
	delete(c.neighbors.rows, to)
	c.invalidateRoutesVia(c.Env.ID(), to)
	c.Env.FlushNextHop(to)
	if p.Kind != pkt.KindData {
		return
	}
	me := c.Env.ID()
	if !c.cfg.DisableLocalRepair && c.localRepair(p, to) {
		return
	}
	if p.Src == me {
		c.disc.Hold(p)
		return
	}
	// Tell the source, along the reversed prefix p has travelled.
	c.SendLinkError(p.Src, me, to, routing.ReversePrefix(p.SrcRoute, slices.Index(p.SrcRoute, me)))
	c.Env.Drop(p, stats.DropSalvageFail)
}

// localRepair tries to bridge the broken hop using 2-hop neighbour
// knowledge: find a neighbour adjacent to the unreachable next hop (or the
// hop after it) and splice it into the source route.
func (c *CBRP) localRepair(p *pkt.Packet, failed pkt.NodeID) bool {
	idx, ok := routing.NextHop(p.SrcRoute, c.Env.ID())
	if !ok {
		return false
	}
	// Targets to re-reach, in order of preference: the node after the
	// failed hop (bypassing it entirely), then the failed hop itself.
	var targets []pkt.NodeID
	if idx+2 < len(p.SrcRoute) {
		targets = append(targets, p.SrcRoute[idx+2])
	}
	targets = append(targets, p.SrcRoute[idx+1])
	now := c.Env.Now()
	// Candidate bridging neighbours, visited from a random starting point
	// and built lazily (the direct-repair branch usually wins first).
	// The rotation matters: always preferring the lowest id lets two
	// repairing nodes splice each other into a stable forwarding cycle
	// (the packet ping-pongs until its TTL dies, at every retry, forever),
	// while a deterministic RNG draw breaks such cycles the way Go's
	// randomised map iteration used to — without the cross-process
	// nondeterminism that came with it.
	var vias []pkt.NodeID
	off := -1
	for _, tgt := range targets {
		// Direct (fresh) neighbour?
		if tgt != failed && c.neighbors.fresh(tgt, now, c.cfg.HelloInterval) {
			routing.AttachRoute(p, spliceRoute(p.SrcRoute, idx, tgt, false, 0))
			c.forwardData(p)
			return true
		}
		// Via an intermediate fresh neighbour?
		if off < 0 {
			vias = c.neighbors.ids()
			off = 0
			if len(vias) > 1 {
				off = c.Env.RNG().Intn(len(vias))
			}
		}
		for k := range vias {
			via := vias[(k+off)%len(vias)]
			if via == failed || !c.neighbors.fresh(via, now, c.cfg.HelloInterval) {
				continue
			}
			if c.neighbors.neighborOf(via, tgt) {
				routing.AttachRoute(p, spliceRoute(p.SrcRoute, idx, tgt, true, via))
				c.forwardData(p)
				return true
			}
		}
	}
	return false
}

// spliceRoute rebuilds a source route: prefix up to idx (inclusive), then
// optional via, then from tgt onward.
func spliceRoute(route []pkt.NodeID, idx int, tgt pkt.NodeID, hasVia bool, via pkt.NodeID) []pkt.NodeID {
	out := append([]pkt.NodeID(nil), route[:idx+1]...)
	if hasVia {
		out = append(out, via)
	}
	ti := slices.Index(route, tgt)
	out = append(out, route[ti:]...)
	// Remove accidental duplicates introduced by the splice (keep first).
	seen := make(map[pkt.NodeID]bool, len(out))
	clean := out[:0]
	for _, n := range out {
		if seen[n] {
			continue
		}
		seen[n] = true
		clean = append(clean, n)
	}
	return clean
}

func (c *CBRP) handleRERR(p *pkt.Packet, m *routing.LinkError) {
	c.invalidateRoutesVia(m.A, m.B)
	if p.Dst != c.Env.ID() {
		c.Relay(p)
	}
}
