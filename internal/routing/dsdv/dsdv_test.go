package dsdv

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/rtest"
	"adhocsim/internal/sim"
)

func factory(cfg Config) network.ProtocolFactory { return Factory(cfg) }

func instrumented(cfg Config, agents *[]*DSDV) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol {
		a := New(cfg)
		*agents = append(*agents, a)
		return a
	}
}

// fast returns a config with quick convergence for short tests.
func fast() Config {
	return Config{UpdateInterval: 2 * sim.Second, MinTriggerGap: 200 * sim.Millisecond}
}

func TestTableConvergenceOnChain(t *testing.T) {
	var agents []*DSDV
	h := rtest.NewChain(t, 5, 200, instrumented(fast(), &agents))
	h.Run(15)
	for i, a := range agents {
		if len(a.table) != 4 {
			t.Fatalf("node %d knows %d destinations, want 4", i, len(a.table))
		}
	}
	// Next hops follow the chain.
	if r := agents[0].lookup(4); r == nil || r.nextHop != 1 {
		t.Fatalf("n0→4 next hop: route %+v, want one via 1", r)
	}
	if r := agents[2].lookup(0); r == nil || r.nextHop != 1 {
		t.Fatalf("n2→0 next hop: route %+v, want one via 1", r)
	}
	if r := agents[4].lookup(0); r == nil || r.nextHop != 3 {
		t.Fatalf("n4→0 next hop: route %+v, want one via 3", r)
	}
}

func TestDataFollowsConvergedRoutes(t *testing.T) {
	h := rtest.NewChain(t, 5, 200, factory(fast()))
	// Wait out convergence, then send.
	h.SendMany(0, 4, 10, sim.At(12), 100*sim.Millisecond)
	h.Run(20)
	if got := h.DeliveredUnique(4); got != 10 {
		t.Fatalf("delivered %d/10 on converged chain", got)
	}
	// Delivered along the 4-hop optimal path.
	for _, d := range h.Deliveries {
		if d.Pkt.Hops != 4 {
			t.Fatalf("packet took %d hops, want 4", d.Pkt.Hops)
		}
	}
}

func TestNoRouteDropsBeforeConvergence(t *testing.T) {
	h := rtest.NewChain(t, 5, 200, factory(Config{UpdateInterval: 10 * sim.Second}))
	// Send immediately: far destination is unknown, DSDV drops.
	h.SendAt(0, 4, sim.At(0.5))
	h.Run(2)
	res := h.World.Collector.Finalize()
	if res.Drops["no-route"] != 1 {
		t.Fatalf("expected a no-route drop, got %v", res.Drops)
	}
	if h.DeliveredTo(4) != 0 {
		t.Fatal("impossible delivery before any update exchange")
	}
}

func TestBrokenLinkMarksInfinityAndHeals(t *testing.T) {
	// Chain with a redundant bypass: 0-1-2 plus node 3 near the middle.
	// When 1 vanishes, routes via 1 must break and re-form via 3.
	var agents []*DSDV
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		rtest.MovingAwayTrack(geo.Pt(200, 0), geo.Pt(200, 5000), sim.At(10), 500),
		mobility.Static(geo.Pt(400, 0)),
		mobility.Static(geo.Pt(200, 100)),
	}
	h := rtest.NewTracks(t, tracks, instrumented(fast(), &agents))
	h.SendMany(0, 2, 60, sim.At(8), 250*sim.Millisecond)
	h.Run(30)
	// Traffic spans the break at t=10; most packets must arrive.
	if got := h.DeliveredUnique(2); got < 45 {
		t.Fatalf("delivered %d/60 across DSDV break+heal", got)
	}
	// After healing, node 0 must route to 2 via 3.
	if r := agents[0].lookup(2); r == nil || r.nextHop != 3 {
		t.Fatalf("healed next hop: route %+v, want one via 3", r)
	}
}

func TestPeriodicOverheadIndependentOfTraffic(t *testing.T) {
	quiet := rtest.NewChain(t, 4, 200, factory(Config{UpdateInterval: 3 * sim.Second}))
	quiet.Run(30)
	quietTx := quiet.RoutingTx()
	if quietTx == 0 {
		t.Fatal("proactive protocol silent")
	}
	busy := rtest.NewChain(t, 4, 200, factory(Config{UpdateInterval: 3 * sim.Second}))
	busy.SendMany(0, 3, 20, sim.At(10), 500*sim.Millisecond)
	busy.Run(30)
	busyTx := busy.RoutingTx()
	// Same beacon schedule: overhead within 30% regardless of traffic.
	lo, hi := float64(quietTx)*0.7, float64(quietTx)*1.3
	if float64(busyTx) < lo || float64(busyTx) > hi {
		t.Fatalf("overhead traffic-dependent: quiet %d vs busy %d", quietTx, busyTx)
	}
}

func TestTriggeredUpdatesAccelerateConvergence(t *testing.T) {
	slowCfg := Config{UpdateInterval: 5 * sim.Second, DisableTriggered: true}
	fastCfg := Config{UpdateInterval: 5 * sim.Second, MinTriggerGap: 200 * sim.Millisecond}
	measure := func(cfg Config) int {
		var agents []*DSDV
		h := rtest.NewChain(t, 6, 200, instrumented(cfg, &agents))
		h.Run(7) // just past one full dump cycle
		known := 0
		for _, a := range agents {
			known += len(a.table)
		}
		return known
	}
	slow := measure(slowCfg)
	quick := measure(fastCfg)
	if quick <= slow {
		t.Fatalf("triggered updates did not speed convergence: %d vs %d entries", quick, slow)
	}
}

func TestHopCountTTLGuard(t *testing.T) {
	// Two nodes; corrupting route tables is hard from outside, so just
	// verify a normal delivery records sane hop counts (no loop blowup).
	h := rtest.NewChain(t, 3, 200, factory(fast()))
	h.SendMany(0, 2, 5, sim.At(10), 200*sim.Millisecond)
	h.Run(15)
	for _, d := range h.Deliveries {
		if d.Pkt.Hops > 3 {
			t.Fatalf("suspicious hop count %d on 2-hop chain", d.Pkt.Hops)
		}
	}
}
