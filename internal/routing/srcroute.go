package routing

import (
	"slices"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// Wire sizes of the source-route messages (option headers per the DSR draft,
// 4-byte addresses).
const (
	rreqBaseBytes = 8
	rrepBaseBytes = 8
	rerrBytes     = 12
	srBaseBytes   = 4
)

// MaxRequestRetries is how many unanswered route requests a source-routing
// origin re-sends before it gives the target up.
const MaxRequestRetries = 8

// DiscoveryBase is a source-routing origin's wait after its first
// network-wide route request; the wait doubles per retry up to DiscoveryMax.
const (
	DiscoveryBase = 500 * sim.Millisecond
	DiscoveryMax  = 10 * sim.Second
)

// RouteRequest is a flooded route request; Record holds the nodes traversed
// so far, originator first.
type RouteRequest struct {
	Origin pkt.NodeID
	Target pkt.NodeID
	ID     uint32
	Record []pkt.NodeID
}

// RouteReply carries a discovered route, origin..target.
type RouteReply struct {
	Route []pkt.NodeID
}

// LinkError reports the broken directed link A→B.
type LinkError struct {
	A, B pkt.NodeID
}

// NextHop returns the position of me in route; ok is false when route lacks
// me or ends at it.
func NextHop(route []pkt.NodeID, me pkt.NodeID) (idx int, ok bool) {
	idx = slices.Index(route, me)
	return idx, idx >= 0 && idx+1 < len(route)
}

// ReversePrefix returns route[i], route[i-1], …, route[0]: the way back from
// the i-th node of route to its first (empty when i < 0).
func ReversePrefix(route []pkt.NodeID, i int) []pkt.NodeID {
	back := make([]pkt.NodeID, 0, i+1)
	for j := i; j >= 0; j-- {
		back = append(back, route[j])
	}
	return back
}

// AttachRoute installs source route route on p and charges its header bytes,
// refunding those of a route p already carried (salvage, repair).
func AttachRoute(p *pkt.Packet, route []pkt.NodeID) {
	if p.SrcRoute != nil {
		p.Size -= srBaseBytes + pkt.SrcRouteAddrBytes*len(p.SrcRoute)
	}
	p.SrcRoute = route
	p.SRIndex = 0
	p.Size += srBaseBytes + pkt.SrcRouteAddrBytes*len(route)
}

// Backoff returns base doubled n times, capped at limit.
func Backoff(base, limit sim.Duration, n int) sim.Duration {
	for i := 0; i < n && base < limit; i++ {
		base *= 2
	}
	return min(base, limit)
}

// SourceRouter is embedded by the agents that carry routes in packet headers
// (DSR, CBRP). It holds their route-request state — request counter and
// duplicate cache — and speaks the wire format both share; what each
// protocol does with a request it accepted or a route it learnt stays in
// the protocol.
type SourceRouter struct {
	Base
	seen  *SeenCache
	reqID uint32
}

// Init binds the router to its node; agents call it from Start.
func (s *SourceRouter) Init(env network.Env) {
	s.Env = env
	s.seen = NewSeenCache(30 * sim.Second)
}

// Originate floods a fresh request for target, ttl hops deep.
func (s *SourceRouter) Originate(target pkt.NodeID, ttl int) {
	me, now := s.Env.ID(), s.Env.Now()
	s.reqID++
	p, m := pkt.Routing[RouteRequest]("RREQ", me, pkt.Broadcast, ttl, rreqBaseBytes+pkt.SrcRouteAddrBytes, now)
	*m = RouteRequest{Origin: me, Target: target, ID: s.reqID, Record: []pkt.NodeID{me}}
	s.seen.Seen(SeenKey{Origin: me, ID: m.ID}, now)
	s.Env.SendMac(p, pkt.Broadcast)
}

// Accept screens an incoming request. It returns nil for one this node
// originated, already forwarded or has seen before; otherwise the record
// extended by this node, in storage of its own.
func (s *SourceRouter) Accept(m *RouteRequest) []pkt.NodeID {
	me := s.Env.ID()
	if m.Origin == me || slices.Contains(m.Record, me) ||
		s.seen.Seen(SeenKey{Origin: m.Origin, ID: m.ID}, s.Env.Now()) {
		return nil
	}
	return append(append([]pkt.NodeID(nil), m.Record...), me)
}

// Reflood relays request m, which arrived as p, one hop further under the
// extended record, unless its TTL is spent.
func (s *SourceRouter) Reflood(p *pkt.Packet, m *RouteRequest, record []pkt.NodeID) {
	p2, m2 := pkt.CloneRouting[RouteRequest](p)
	p2.TTL--
	if p2.Expired() {
		return
	}
	m2.Record = record
	p2.Size = pkt.IPHeaderBytes + rreqBaseBytes + pkt.SrcRouteAddrBytes*len(record)
	s.Rebroadcast(p2)
}

// SendReply returns route (origin..target, this node on it) to the origin
// along the reversed part of route up to this node. (Links are symmetric
// under this PHY.)
func (s *SourceRouter) SendReply(route []pkt.NodeID) {
	me := s.Env.ID()
	back := ReversePrefix(route, slices.Index(route, me))
	if len(back) < 2 {
		return
	}
	p, m := pkt.Routing[RouteReply]("RREP", me, route[0], pkt.DefaultTTL,
		rrepBaseBytes+pkt.SrcRouteAddrBytes*(len(route)+len(back)), s.Env.Now())
	m.Route = append([]pkt.NodeID(nil), route...)
	s.sendAlong(p, back)
}

// SendLinkError reports broken link a→b to dst along back, a source route
// from this node to dst; it does nothing if back is not one.
func (s *SourceRouter) SendLinkError(dst, a, b pkt.NodeID, back []pkt.NodeID) {
	me := s.Env.ID()
	if len(back) < 2 || back[0] != me {
		return
	}
	p, m := pkt.Routing[LinkError]("RERR", me, dst, pkt.DefaultTTL, rerrBytes, s.Env.Now())
	*m = LinkError{A: a, B: b}
	s.sendAlong(p, back)
}

func (s *SourceRouter) sendAlong(p *pkt.Packet, route []pkt.NodeID) {
	p.SrcRoute = route
	p.SRIndex = 0
	s.Env.SendMac(p, route[1])
}

// Relay forwards source-routed control packet p one hop along its route. It
// reports false, sending nothing, when the route lacks this node or ends
// at it.
func (s *SourceRouter) Relay(p *pkt.Packet) bool {
	idx, ok := NextHop(p.SrcRoute, s.Env.ID())
	if !ok {
		return false
	}
	p2 := p.Clone()
	p2.SRIndex = idx
	s.Env.SendMac(p2, p.SrcRoute[idx+1])
	return true
}
