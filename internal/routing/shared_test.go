package routing_test

import (
	"reflect"
	"testing"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/routing/aodv"
	"adhocsim/internal/routing/cbrp"
	"adhocsim/internal/routing/dsr"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// fakeEnv is a one-node world: a real engine and RNG, and a log of what the
// agent under test handed to the MAC or dropped.
type fakeEnv struct {
	id    pkt.NodeID
	eng   *sim.Engine
	rng   *sim.RNG
	sent  []sent
	drops []dropped
}

type sent struct {
	at sim.Time
	p  *pkt.Packet
	to pkt.NodeID
}

type dropped struct {
	at  sim.Time
	p   *pkt.Packet
	why stats.DropReason
}

func newFakeEnv(id pkt.NodeID) *fakeEnv {
	return &fakeEnv{id: id, eng: sim.NewEngine(), rng: sim.NewRNG(1)}
}

func (e *fakeEnv) ID() pkt.NodeID      { return e.id }
func (e *fakeEnv) Now() sim.Time       { return e.eng.Now() }
func (e *fakeEnv) Engine() *sim.Engine { return e.eng }
func (e *fakeEnv) RNG() *sim.RNG       { return e.rng }
func (e *fakeEnv) NumNodes() int       { return 16 }
func (e *fakeEnv) SendMac(p *pkt.Packet, to pkt.NodeID) {
	e.sent = append(e.sent, sent{e.eng.Now(), p, to})
}
func (e *fakeEnv) Deliver(*pkt.Packet, pkt.NodeID) {}
func (e *fakeEnv) Drop(p *pkt.Packet, why stats.DropReason) {
	e.drops = append(e.drops, dropped{e.eng.Now(), p, why})
}
func (e *fakeEnv) FlushNextHop(pkt.NodeID) {}

// Released implements network.Env: the log keeps every packet the agent
// sent, so none is ever free to be rebuilt.
func (e *fakeEnv) Released(*pkt.Packet) bool { return false }

func (e *fakeEnv) run(t *testing.T, until sim.Time) {
	t.Helper()
	if err := e.eng.Run(until); err != nil {
		t.Fatal(err)
	}
}

const (
	ms = sim.Millisecond
	s  = sim.Second
)

// step is one route request as the medium sees it: its TTL and how long the
// origin then waited before the next request (or before giving up).
type step struct {
	ttl  int
	wait sim.Duration
}

// TestRequestSequences pins, per protocol and policy switch, the exact
// (ttl, wait) of every try of a search nobody answers, and that the held
// packet then dies exactly once, as no-route.
func TestRequestSequences(t *testing.T) {
	const me, dst = pkt.NodeID(0), pkt.NodeID(9)
	far := 1000 * s // keep the held packet past the longest search
	full := pkt.DefaultTTL
	doubling := []step{{full, 500 * ms}, {full, 1 * s}, {full, 2 * s}, {full, 4 * s}, {full, 8 * s},
		{full, 10 * s}, {full, 10 * s}, {full, 10 * s}, {full, 10 * s}}
	rows := []struct {
		name  string
		agent network.Protocol
		// begin makes the agent hold a packet for dst; nil = SendData at 0.
		begin func(t *testing.T, env *fakeEnv, a network.Protocol, p *pkt.Packet)
		first sim.Time // when the first request must go out
		want  []step
	}{
		{name: "AODV", agent: aodv.New(aodv.Config{}), want: []step{
			{1, 240 * ms}, {3, 400 * ms}, {5, 560 * ms}, {7, 720 * ms},
			{35, 2960 * ms}, {35, 5920 * ms}, {35, 11840 * ms}}},
		{name: "AODV/no-ring", agent: aodv.New(aodv.Config{DisableExpandingRing: true}), want: []step{
			{35, 2960 * ms}, {35, 5920 * ms}, {35, 11840 * ms}}},
		{name: "DSR", agent: dsr.New(dsr.Config{SendBufferTimeout: far}),
			want: append([]step{{1, 30 * ms}}, doubling[:8]...)},
		{name: "DSR/no-nonprop", agent: dsr.New(dsr.Config{SendBufferTimeout: far, DisableNonPropagating: true}),
			want: doubling},
		{name: "CBRP", agent: cbrp.New(cbrp.Config{SendBufferTimeout: far}), want: doubling},
		{
			// A route found at t=0 breaks at 100 ms, inside the 250 ms
			// cooldown of the flood that found it: the new search waits the
			// cooldown out, and that wait costs try 0 — eight floods, the
			// first already at the doubled wait.
			name: "CBRP/cooldown", agent: cbrp.New(cbrp.Config{SendBufferTimeout: far}),
			begin: func(t *testing.T, env *fakeEnv, a network.Protocol, p *pkt.Packet) {
				a.SendData(p)
				rep, m := pkt.Routing[routing.RouteReply]("RREP", dst, me, pkt.DefaultTTL, 20, 0)
				m.Route = []pkt.NodeID{me, 5, dst}
				a.Recv(rep, 5, 0)
				if last := env.sent[len(env.sent)-1]; last.p != p || last.to != 5 {
					t.Fatalf("held packet not released along the reply's route: %+v", last)
				}
				env.sent = nil
				env.eng.Schedule(sim.Time(100*ms), func() { a.MacFailed(p, 5) })
			},
			first: sim.Time(250 * ms), want: doubling[1:],
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			env := newFakeEnv(me)
			row.agent.Start(env)
			p := pkt.DataPacket(me, dst, 1, 64, 0)
			if row.begin == nil {
				row.agent.SendData(p)
			} else {
				row.begin(t, env, row.agent, p)
			}
			env.run(t, sim.Time(200*s))

			var at []sim.Time
			var got []step
			for _, tx := range env.sent {
				if tx.p.Msg == "RREQ" {
					at = append(at, tx.at)
					got = append(got, step{ttl: tx.p.TTL})
				}
			}
			if len(env.drops) != 1 || env.drops[0].p != p || env.drops[0].why != stats.DropNoRoute {
				t.Fatalf("drops = %+v, want the held packet once as no-route", env.drops)
			}
			if len(at) == 0 || at[0] != row.first {
				t.Fatalf("request times %v, want the first at %v", at, row.first)
			}
			for i := range got {
				next := env.drops[0].at
				if i+1 < len(at) {
					next = at[i+1]
				}
				got[i].wait = next.Sub(at[i])
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Fatalf("(ttl, wait) per try:\n got %v\nwant %v", got, row.want)
			}
		})
	}
}

// scripted is a Requester that answers from a table and records its calls.
type scripted struct {
	env   *fakeEnv
	waits []sim.Duration // try i waits waits[i]; past the end gives up
	calls []call
}

type call struct {
	dst       pkt.NodeID
	try       int
	at        sim.Time
	armedWhen int // events pending while Request runs
}

func (r *scripted) Request(dst pkt.NodeID, try int) (sim.Duration, bool) {
	r.calls = append(r.calls, call{dst, try, r.env.Now(), r.env.eng.Len()})
	if try >= len(r.waits) {
		return 0, false
	}
	return r.waits[try], true
}

func newDiscovery(bufCap int, bufTimeout sim.Duration, waits ...sim.Duration) (*routing.Discovery, *scripted, *fakeEnv) {
	env := newFakeEnv(0)
	req := &scripted{env: env, waits: waits}
	d := new(routing.Discovery)
	d.Init(&routing.Base{Env: env}, req, bufCap, bufTimeout)
	return d, req, env
}

func tries(calls []call) []int {
	out := make([]int, len(calls))
	for i, c := range calls {
		out[i] = c.try
	}
	return out
}

func TestDiscoveryAbandonsWhenNothingWaits(t *testing.T) {
	d, req, env := newDiscovery(0, 0, 1*s, 1*s, 1*s)
	d.Start(7) // a search with no packet behind it (PAODV's refresh)
	env.run(t, sim.Never)
	if got := tries(req.calls); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("tries = %v, want only the first", got)
	}
	if len(env.drops) != 0 {
		t.Fatalf("drops = %+v", env.drops)
	}
	d.Start(7)
	if got := tries(req.calls); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Fatalf("a later search must start from try 0 again, got %v", got)
	}
}

func TestDiscoveryGiveUpDropsEachHeldPacketOnce(t *testing.T) {
	d, req, env := newDiscovery(0, 0, 1*s, 2*s)
	a1, a2, b := pkt.DataPacket(0, 7, 1, 64, 0), pkt.DataPacket(0, 7, 2, 64, 0), pkt.DataPacket(0, 8, 1, 64, 0)
	d.Hold(a1)
	d.Hold(a2) // busy target: buffered, no second search
	d.Hold(b)
	env.run(t, sim.Never)
	var to7 []int
	for _, c := range req.calls {
		if c.dst == 7 {
			to7 = append(to7, c.try)
		}
	}
	if !reflect.DeepEqual(to7, []int{0, 1, 2}) {
		t.Fatalf("tries for 7 = %v, want 0 1 2 (the last gives up)", to7)
	}
	want := []dropped{{sim.Time(3 * s), a1, stats.DropNoRoute}, {sim.Time(3 * s), a2, stats.DropNoRoute}, {sim.Time(3 * s), b, stats.DropNoRoute}}
	if !reflect.DeepEqual(env.drops, want) {
		t.Fatalf("drops = %+v, want each held packet once as no-route at 3 s", env.drops)
	}
	if env.eng.Len() != 0 {
		t.Fatalf("%d events left armed after giving up", env.eng.Len())
	}
}

func TestDiscoveryFoundLeavesNoArmedTimer(t *testing.T) {
	d, req, env := newDiscovery(0, 0, 1*s, 1*s, 1*s)
	p, other := pkt.DataPacket(0, 7, 1, 64, 0), pkt.DataPacket(0, 8, 1, 64, 0)
	d.Hold(p)
	d.Start(7) // busy: a no-op
	env.run(t, sim.Time(1500*ms))
	// The protocol sends inside Request, before the retry timer is armed.
	if want := []call{{7, 0, 0, 0}, {7, 1, sim.Time(1 * s), 0}}; !reflect.DeepEqual(req.calls, want) {
		t.Fatalf("calls = %+v, want %+v", req.calls, want)
	}
	if env.eng.Len() != 1 {
		t.Fatalf("%d events armed while searching, want the one retry timer", env.eng.Len())
	}
	if got := d.Found(7); len(got) != 1 || got[0] != p {
		t.Fatalf("Found = %v, want the held packet", got)
	}
	if env.eng.Len() != 0 {
		t.Fatalf("%d events armed after Found", env.eng.Len())
	}
	if got := d.Found(7); got != nil {
		t.Fatalf("second Found = %v", got)
	}
	d.Hold(other)
	if got := d.Found(7); got != nil {
		t.Fatalf("Found(7) released a packet for 8: %v", got)
	}
}

func TestDiscoveryBufferDropReasons(t *testing.T) {
	d, req, env := newDiscovery(2, 1*s, 3*s, 3*s)
	p1, p2, p3 := pkt.DataPacket(0, 7, 1, 64, 0), pkt.DataPacket(0, 7, 2, 64, 0), pkt.DataPacket(0, 7, 3, 64, 0)
	d.Hold(p1)
	d.Hold(p2)
	d.Hold(p3) // evicts the oldest
	env.run(t, sim.Never)
	// At 3 s the two survivors have timed out of the buffer (1 s): the
	// search is abandoned without a second try.
	want := []dropped{{0, p1, stats.DropSendBufFull}, {sim.Time(3 * s), p2, stats.DropSendBuffer}, {sim.Time(3 * s), p3, stats.DropSendBuffer}}
	if !reflect.DeepEqual(env.drops, want) {
		t.Fatalf("drops = %+v", env.drops)
	}
	if got := tries(req.calls); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("tries = %v", got)
	}
}

func TestAttachRouteReattachRestoresSize(t *testing.T) {
	p := pkt.DataPacket(0, 9, 1, 64, 0)
	bare := p.Size
	short, long := []pkt.NodeID{0, 4, 9}, []pkt.NodeID{0, 1, 2, 3, 9}
	for _, c := range []struct {
		route []pkt.NodeID
		size  int
	}{
		{short, bare + 4 + 4*3},
		{long, bare + 4 + 4*5}, // salvage onto a longer route
		{short, bare + 4 + 4*3},
	} {
		p.SRIndex = 2
		routing.AttachRoute(p, c.route)
		if p.Size != c.size || p.SRIndex != 0 || &p.SrcRoute[0] != &c.route[0] {
			t.Fatalf("after attaching %v: size %d (want %d), index %d", c.route, p.Size, c.size, p.SRIndex)
		}
	}
}

func TestRouteHelpers(t *testing.T) {
	route := []pkt.NodeID{4, 7, 2, 9}
	for _, c := range []struct {
		n   pkt.NodeID
		idx int
		ok  bool
	}{{4, 0, true}, {2, 2, true}, {9, 3, false}, {5, -1, false}} {
		if idx, ok := routing.NextHop(route, c.n); idx != c.idx || ok != c.ok {
			t.Errorf("NextHop(%v) = %d, %v, want %d, %v", c.n, idx, ok, c.idx, c.ok)
		}
	}
	for i, want := range map[int][]pkt.NodeID{-1: {}, 0: {4}, 2: {2, 7, 4}, 3: {9, 2, 7, 4}} {
		if got := routing.ReversePrefix(route, i); !reflect.DeepEqual(got, want) {
			t.Errorf("ReversePrefix(%d) = %v, want %v", i, got, want)
		}
	}
	for n, want := range []sim.Duration{500 * ms, 1 * s, 2 * s, 4 * s, 8 * s, 10 * s, 10 * s} {
		if got := routing.Backoff(500*ms, 10*s, n); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", n, got, want)
		}
	}
	if !routing.SeqNewer(1, 0) || routing.SeqNewer(0, 1) || routing.SeqNewer(5, 5) || !routing.SeqNewer(2, 0xfffffffe) {
		t.Error("SeqNewer is not wraparound-aware")
	}
}

func newRouter(id pkt.NodeID) (*routing.SourceRouter, *fakeEnv) {
	env := newFakeEnv(id)
	r := new(routing.SourceRouter)
	r.Init(env)
	return r, env
}

func TestRelay(t *testing.T) {
	for _, c := range []struct {
		name  string
		route []pkt.NodeID
		next  pkt.NodeID // Broadcast = must refuse
	}{
		{"mid-route", []pkt.NodeID{0, 2, 5}, 5},
		{"route lacks the node", []pkt.NodeID{0, 1, 5}, pkt.Broadcast},
		{"route ends at the node", []pkt.NodeID{0, 1, 2}, pkt.Broadcast},
		{"no route", nil, pkt.Broadcast},
	} {
		r, env := newRouter(2)
		p := pkt.RoutingPacket("RREP", 5, 0, pkt.DefaultTTL, 20, 0)
		p.SrcRoute = c.route
		ok := r.Relay(p)
		if c.next == pkt.Broadcast {
			if ok || len(env.sent) != 0 {
				t.Errorf("%s: relayed (%v, %d sends)", c.name, ok, len(env.sent))
			}
			continue
		}
		if !ok || len(env.sent) != 1 || env.sent[0].to != c.next {
			t.Fatalf("%s: ok=%v sends=%+v", c.name, ok, env.sent)
		}
		if q := env.sent[0].p; q == p || q.SRIndex != 1 || p.SRIndex != 0 {
			t.Errorf("%s: must send a clone carrying its own index (sent %d, original %d)", c.name, q.SRIndex, p.SRIndex)
		}
	}
}

func TestAcceptRequest(t *testing.T) {
	const me = pkt.NodeID(2)
	r, env := newRouter(me)
	r.Originate(9, 3)
	if len(env.sent) != 1 || env.sent[0].to != pkt.Broadcast || env.sent[0].p.TTL != 3 ||
		env.sent[0].p.Size != pkt.IPHeaderBytes+8+4 {
		t.Fatalf("originated %+v", env.sent)
	}
	own := env.sent[0].p.Payload.(*routing.RouteRequest)
	if !reflect.DeepEqual(own.Record, []pkt.NodeID{me}) || own.Target != 9 {
		t.Fatalf("own request = %+v", own)
	}
	heard := []pkt.NodeID{0, 1}
	for _, c := range []struct {
		name string
		m    *routing.RouteRequest
		ok   bool
	}{
		{"own, echoed back", &routing.RouteRequest{Origin: me, Target: 9, ID: own.ID, Record: []pkt.NodeID{me, 1}}, false},
		{"already traversed", &routing.RouteRequest{Origin: 0, Target: 9, ID: 1, Record: []pkt.NodeID{0, me, 1}}, false},
		{"fresh", &routing.RouteRequest{Origin: 0, Target: 9, ID: 2, Record: heard[:2:2]}, true},
		{"duplicate", &routing.RouteRequest{Origin: 0, Target: 9, ID: 2, Record: []pkt.NodeID{0, 3}}, false},
		{"fresh, record with spare room", &routing.RouteRequest{Origin: 0, Target: 9, ID: 3, Record: append(make([]pkt.NodeID, 0, 8), 0, 1)}, true},
	} {
		before := append([]pkt.NodeID(nil), c.m.Record...)
		got := r.Accept(c.m)
		if (got != nil) != c.ok {
			t.Fatalf("%s: Accept = %v", c.name, got)
		}
		if !c.ok {
			continue
		}
		if want := append(append([]pkt.NodeID(nil), before...), me); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: record = %v, want %v", c.name, got, want)
		}
		got[0] = 99
		if full := c.m.Record[:cap(c.m.Record)]; !reflect.DeepEqual(c.m.Record, before) || full[len(full)-1] == me {
			t.Fatalf("%s: the extended record aliases the incoming one (%v)", c.name, full)
		}
	}
}

func TestRefloodAndReply(t *testing.T) {
	const me = pkt.NodeID(2)
	r, env := newRouter(me)
	in, m := pkt.Routing[routing.RouteRequest]("RREQ", 0, pkt.Broadcast, 1, 16, 0)
	*m = routing.RouteRequest{Origin: 0, Target: 9, ID: 1, Record: []pkt.NodeID{0, 1}}
	r.Reflood(in, m, []pkt.NodeID{0, 1, me})
	env.run(t, sim.Never)
	if len(env.sent) != 0 {
		t.Fatalf("a request with its TTL spent was relayed: %+v", env.sent)
	}
	in.TTL = 4
	r.Reflood(in, m, []pkt.NodeID{0, 1, me})
	if len(env.sent) != 0 {
		t.Fatal("relayed without jitter")
	}
	env.run(t, sim.Never)
	if len(env.sent) != 1 || env.sent[0].to != pkt.Broadcast || env.sent[0].at >= sim.Time(routing.BroadcastJitter) {
		t.Fatalf("reflood = %+v", env.sent)
	}
	q := env.sent[0].p
	if q == in || q.TTL != 3 || in.TTL != 4 || q.Size != pkt.IPHeaderBytes+8+4*3 {
		t.Fatalf("relayed packet %+v (incoming %+v)", q, in)
	}
	if m2 := q.Payload.(*routing.RouteRequest); m2 == m || len(m.Record) != 2 || !reflect.DeepEqual(m2.Record, []pkt.NodeID{0, 1, me}) {
		t.Fatalf("relayed request %+v, incoming %+v", m2, m)
	}

	env.sent = nil
	route := []pkt.NodeID{0, 1, me, 9} // a head answering for neighbour 9
	r.SendReply(route)
	r.SendReply([]pkt.NodeID{me, 9}) // nowhere to send it back to
	r.SendReply([]pkt.NodeID{0, 1})  // not on the route
	if len(env.sent) != 1 {
		t.Fatalf("replies sent: %+v", env.sent)
	}
	rep := env.sent[0]
	if rep.to != 1 || rep.p.Dst != 0 || !reflect.DeepEqual(rep.p.SrcRoute, []pkt.NodeID{me, 1, 0}) ||
		rep.p.Size != pkt.IPHeaderBytes+8+4*(4+3) {
		t.Fatalf("reply %+v to %v", rep.p, rep.to)
	}
	if got := rep.p.Payload.(*routing.RouteReply).Route; !reflect.DeepEqual(got, route) || &got[0] == &route[0] {
		t.Fatalf("reply route %v must be a copy of %v", got, route)
	}

	env.sent = nil
	r.SendLinkError(0, me, 9, []pkt.NodeID{me})       // too short
	r.SendLinkError(0, me, 9, []pkt.NodeID{1, 0})     // does not start here
	r.SendLinkError(0, me, 9, nil)                    // unknown
	r.SendLinkError(0, me, 9, []pkt.NodeID{me, 1, 0}) // sent
	if len(env.sent) != 1 || env.sent[0].to != 1 || env.sent[0].p.Dst != 0 ||
		*env.sent[0].p.Payload.(*routing.LinkError) != (routing.LinkError{A: me, B: 9}) {
		t.Fatalf("link errors sent: %+v", env.sent)
	}
}

func TestBeaconJitter(t *testing.T) {
	env := newFakeEnv(0)
	b := &routing.Base{Env: env}
	var at []sim.Time
	b.Beacon(2*s, 1*s, func() { at = append(at, env.Now()) })
	env.run(t, sim.Time(100*s))
	if len(at) < 40 || at[0] >= sim.Time(1*s) {
		t.Fatalf("%d beacons, first at %v", len(at), at[0])
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < 1800*ms || gap >= 2200*ms {
			t.Fatalf("gap %d = %v, want within ±10 %% of 2 s", i, gap)
		}
	}
}
