package aodv

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/routing/rtest"
	"adhocsim/internal/sim"
)

func TestHelloBeaconsOnlyWithActiveRoutes(t *testing.T) {
	cfg := Config{HelloInterval: sim.Second}
	h := rtest.NewChain(t, 3, 200, factory(cfg))
	// No traffic for 5 s: no active routes, hence no hellos.
	h.Run(5)
	if got := h.World.Collector.Finalize().RoutingByType["HELLO"]; got != 0 {
		t.Fatalf("%d HELLOs with no active routes", got)
	}
	// Traffic creates routes; hellos must start.
	h.SendMany(0, 2, 10, sim.At(5), 200*sim.Millisecond)
	h.Run(10)
	if got := h.World.Collector.Finalize().RoutingByType["HELLO"]; got == 0 {
		t.Fatal("no HELLOs despite active routes")
	}
	if h.DeliveredUnique(2) != 10 {
		t.Fatalf("delivered %d/10 in hello mode", h.DeliveredUnique(2))
	}
}

func TestHelloDetectsSilentNeighbor(t *testing.T) {
	// 0→2 via 1. Node 1 leaves at t=4. Even with NO further data traffic
	// (so no link-layer feedback), hello loss must invalidate the route
	// and produce a RERR.
	var agents []*AODV
	cfg := Config{HelloInterval: sim.Second}
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		rtest.MovingAwayTrack(geo.Pt(200, 0), geo.Pt(200, 5000), sim.At(4), 1000),
		mobility.Static(geo.Pt(400, 0)),
	}
	h := rtest.NewTracks(t, tracks, instrumented(cfg, &agents))
	// A short burst establishes routes, then silence.
	h.SendMany(0, 2, 3, sim.At(1), 100*sim.Millisecond)
	h.Run(12)
	if agents[0].validRoute(2) != nil {
		t.Fatal("route via vanished neighbour still valid after hello loss")
	}
}

func TestLocalRepairSalvagesAtIntermediate(t *testing.T) {
	// 0-1-2-3 with bypass node 4 near hop 2→3's area. Node 2 leaves at
	// t=5; with local repair node 1 re-discovers 3 itself and forwards
	// the failed packet; without it the packet dies at node 1.
	mk := func(repair bool) (delivered int, drops uint64) {
		tracks := []*mobility.Track{
			mobility.Static(geo.Pt(0, 0)),
			mobility.Static(geo.Pt(200, 0)),
			rtest.MovingAwayTrack(geo.Pt(400, 0), geo.Pt(400, 5000), sim.At(5), 1000),
			mobility.Static(geo.Pt(600, 0)),
			mobility.Static(geo.Pt(400, 80)), // bridges 1 and 3
		}
		cfg := Config{LocalRepair: repair}
		h := rtest.NewTracks(t, tracks, factory(cfg))
		h.SendMany(0, 3, 40, sim.At(1), 250*sim.Millisecond)
		h.Run(25)
		res := h.World.Collector.Finalize()
		return h.DeliveredUnique(3), res.Drops["mac-retries"]
	}
	withRepair, _ := mk(true)
	without, _ := mk(false)
	if withRepair < without {
		t.Fatalf("local repair hurt delivery: %d vs %d", withRepair, without)
	}
	if withRepair < 34 {
		t.Fatalf("delivered %d/40 with local repair", withRepair)
	}
}

// TestExpiredRouteDoesNotVetoFreshRREP is the regression test for a subtle
// stale-state bug: a destination's own RREQ floods install reverse routes
// to it everywhere, stamped with its current sequence number. Those entries
// expire silently (the valid flag stays set). When another node later
// discovers that destination, intermediate nodes receive RREPs carrying the
// same sequence number — and must NOT reject them because of the expired
// entry, or the discovery black-holes forever. The trigger needs the
// destination to also be a traffic source and gaps longer than the route
// lifetime, so it is exercised end-to-end.
func TestExpiredRouteDoesNotVetoFreshRREP(t *testing.T) {
	h := rtest.NewChain(t, 6, 200, factory(Config{}))
	// Phase 1: node 5 (the later destination) runs its own discovery,
	// poisoning reverse routes to itself along the chain.
	h.SendAt(5, 0, sim.At(1))
	// Phase 2: long idle gap — all routes expire silently.
	// Phase 3: node 0 discovers node 5; every packet must be delivered.
	h.SendMany(0, 5, 10, sim.At(20), 200*sim.Millisecond)
	h.Run(30)
	if got := h.DeliveredUnique(5); got != 10 {
		res := h.World.Collector.Finalize()
		t.Fatalf("delivered %d/10 after expiry gap (drops %v)", got, res.Drops)
	}
}
