package dsr

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

func instrumented(cfg Config, agents *[]*DSR) network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol {
		a := New(cfg)
		*agents = append(*agents, a)
		return a
	}
}

func TestChainDiscoveryAndDelivery(t *testing.T) {
	h := rtest.NewChain(t, 5, 200, factory(Config{}))
	h.SendMany(0, 4, 10, sim.At(1), 100*sim.Millisecond)
	h.Run(10)
	if got := h.DeliveredUnique(4); got != 10 {
		t.Fatalf("delivered %d/10 over 4-hop chain", got)
	}
}

func TestSourceRouteCarriedAndHopsCounted(t *testing.T) {
	h := rtest.NewChain(t, 4, 200, factory(Config{}))
	h.SendAt(0, 3, sim.At(1))
	h.Run(5)
	if len(h.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(h.Deliveries))
	}
	p := h.Deliveries[0].Pkt
	if p.Hops != 3 {
		t.Fatalf("hops = %d, want 3", p.Hops)
	}
	if len(p.SrcRoute) != 4 || p.SrcRoute[0] != 0 || p.SrcRoute[3] != 3 {
		t.Fatalf("source route = %v", p.SrcRoute)
	}
	// Header bytes for the source route must be charged.
	if p.Size <= 64+pkt.UDPHeaderBytes+pkt.IPHeaderBytes {
		t.Fatalf("source-route header not charged: size %d", p.Size)
	}
}

func TestRouteCachedAfterFirstDiscovery(t *testing.T) {
	h := rtest.NewChain(t, 4, 200, factory(Config{}))
	h.SendAt(0, 3, sim.At(1))
	h.Run(3)
	afterFirst := h.World.Collector.Finalize().RoutingByType["RREQ"]
	// Second packet long after: the cache must answer without a new RREQ.
	h.SendAt(0, 3, sim.At(30))
	h.Run(35)
	afterSecond := h.World.Collector.Finalize().RoutingByType["RREQ"]
	if h.DeliveredUnique(3) != 2 {
		t.Fatalf("delivered %d/2", h.DeliveredUnique(3))
	}
	if afterSecond != afterFirst {
		t.Fatalf("cache miss: RREQs grew %d → %d", afterFirst, afterSecond)
	}
}

func TestNonPropagatingRequestFirst(t *testing.T) {
	// Adjacent target: the TTL-1 request suffices, so exactly one RREQ
	// transmission happens (nobody refloods).
	h := rtest.NewChain(t, 6, 200, factory(Config{}))
	h.SendAt(0, 1, sim.At(1))
	h.Run(5)
	res := h.World.Collector.Finalize()
	if res.RoutingByType["RREQ"] != 1 {
		t.Fatalf("RREQ tx = %d, want 1 (non-propagating phase)", res.RoutingByType["RREQ"])
	}
	if h.DeliveredTo(1) != 1 {
		t.Fatal("no delivery")
	}
}

func TestReplyFromCache(t *testing.T) {
	// Prime node 1's cache with a route to 4 (flow 1→4), then let node 0
	// discover 4: node 1 answers from cache, so no RREQ is ever
	// transmitted by nodes beyond it.
	var agents []*DSR
	h := rtest.NewChain(t, 5, 200, instrumented(Config{}, &agents))
	h.SendAt(1, 4, sim.At(1))
	h.Run(3)
	base := h.World.Collector.Finalize().RoutingByType["RREQ"]
	h.SendAt(0, 4, sim.At(3))
	h.Run(8)
	res := h.World.Collector.Finalize()
	grew := res.RoutingByType["RREQ"] - base
	if h.DeliveredUnique(4) != 2 {
		t.Fatalf("delivered %d/2", h.DeliveredUnique(4))
	}
	// 0's non-propagating RREQ (1 tx) must be all it takes: node 1 holds
	// 1→4 in cache and splices 0-1-...-4.
	if grew > 1 {
		t.Fatalf("reply-from-cache failed: %d extra RREQ transmissions", grew)
	}
	if agents[0].cache.Find(4) == nil {
		t.Fatal("origin did not cache the spliced route")
	}
}

func TestReplyFromCacheDisabled(t *testing.T) {
	h := rtest.NewChain(t, 5, 200, factory(Config{DisableReplyFromCache: true}))
	h.SendAt(1, 4, sim.At(1))
	h.Run(3)
	base := h.World.Collector.Finalize().RoutingByType["RREQ"]
	h.SendAt(0, 4, sim.At(3))
	h.Run(8)
	grew := h.World.Collector.Finalize().RoutingByType["RREQ"] - base
	if grew <= 1 {
		t.Fatalf("with cache replies disabled the flood must propagate, got %d extra RREQs", grew)
	}
}

func TestSalvageOnLinkBreak(t *testing.T) {
	// 0→3 via 1 (0-1-3); node 2 offers the alternate 0-2-3 and node 1
	// vanishes mid-run. DSR at node 0 must salvage queued/failed packets
	// from its cache (it learned 0-2-3 from the RREQ flood or snooping)
	// or rediscover; either way most packets arrive.
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		rtest.MovingAwayTrack(geo.Pt(200, 0), geo.Pt(200, 5000), sim.At(5), 500),
		mobility.Static(geo.Pt(120, 160)), // in range of both 0 and 3
		mobility.Static(geo.Pt(300, 150)),
	}
	h := rtest.NewTracks(t, tracks, factory(Config{}))
	h.SendMany(0, 3, 40, sim.At(1), 250*sim.Millisecond)
	h.Run(20)
	if got := h.DeliveredUnique(3); got < 34 {
		t.Fatalf("delivered %d/40 across link break", got)
	}
}

func TestRERRPropagatesToSource(t *testing.T) {
	// Break at the far hop: intermediate node 1 must send a RERR to the
	// source, and the source's cache must drop routes over the dead link.
	var agents []*DSR
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.Static(geo.Pt(200, 0)),
		rtest.MovingAwayTrack(geo.Pt(400, 0), geo.Pt(5000, 0), sim.At(4), 800),
	}
	h := rtest.NewTracks(t, tracks, instrumented(Config{}, &agents))
	h.SendMany(0, 2, 30, sim.At(1), 300*sim.Millisecond)
	h.Run(20)
	res := h.World.Collector.Finalize()
	if res.RoutingByType["RERR"] == 0 {
		t.Fatal("no RERR on far-hop break")
	}
	if r := agents[0].cache.Find(2); r != nil {
		t.Fatalf("source still caches a route to the vanished node: %v", r)
	}
}

func TestPromiscuousLearning(t *testing.T) {
	// Triangle: 0 and 2 talk via the chain, node 3 sits in earshot of the
	// whole exchange but is never addressed. With promiscuous learning it
	// must still populate its cache.
	var agents []*DSR
	positions := []geo.Point{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(400, 0), geo.Pt(200, 100)}
	h := rtest.NewPositions(t, positions, instrumented(Config{}, &agents))
	h.SendMany(0, 2, 5, sim.At(1), 200*sim.Millisecond)
	h.Run(5)
	if len(agents[3].cache.paths) == 0 {
		t.Fatal("bystander learned nothing promiscuously")
	}
	// And with the optimization off, it must learn only what the flood
	// itself teaches (RREQ broadcasts still reach it).
	var deaf []*DSR
	h2 := rtest.NewPositions(t, positions, instrumented(Config{DisablePromiscuous: true}, &deaf))
	h2.SendMany(0, 2, 5, sim.At(1), 200*sim.Millisecond)
	h2.Run(5)
	if len(deaf[3].cache.paths) > len(agents[3].cache.paths) {
		t.Fatal("promiscuous learning made the cache smaller")
	}
}

func TestNoControlTrafficWithoutData(t *testing.T) {
	h := rtest.NewChain(t, 5, 200, factory(Config{}))
	h.Run(30)
	if tx := h.RoutingTx(); tx != 0 {
		t.Fatalf("idle DSR transmitted %d routing packets", tx)
	}
}
