package aodv

import (
	"testing"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/rtest"
	"adhocsim/internal/sim"
)

// TestForwardRREPForSelf: an intermediate node may answer an RREQ on the
// destination's behalf while its reverse path to the origin leads through
// that destination, so the destination is asked to forward an RREP whose
// m.Dst is itself. It holds no forward route to itself, and must relay the
// reply along the reverse route all the same.
func TestForwardRREPForSelf(t *testing.T) {
	var agents []*AODV
	h := rtest.NewChain(t, 3, 200, func(pkt.NodeID) network.Protocol {
		a := New(Config{})
		agents = append(agents, a)
		return a
	})
	// A 0→2 discovery leaves node 1 with a valid reverse route to node 0.
	h.SendAt(0, 2, sim.At(1))
	h.Run(1.5)
	if r := agents[1].validRoute(0); r == nil || r.nextHop != 0 {
		t.Fatalf("node 1 reverse next hop: route %+v, want one via 0", r)
	}
	before := h.World.Collector.Finalize().RoutingByType["RREP"]

	// Node 2 hands node 1 a reply for origin 0 about destination 1.
	h.World.Eng.Schedule(sim.At(1.6), func() {
		p, m := pkt.Routing[rrep]("RREP", 2, 0, pkt.DefaultTTL, rrepBytes, h.World.Eng.Now())
		*m = rrep{Origin: 0, Dst: 1, DstSeq: 7, HopCount: 0}
		agents[1].Recv(p, 2, 1)
	})
	h.Run(2)

	if got := h.World.Collector.Finalize().RoutingByType["RREP"]; got != before+1 {
		t.Fatalf("RREP transmissions = %d, want %d (the relayed reply)", got, before+1)
	}
	if _, ok := agents[1].table[1]; ok {
		t.Fatal("node 1 installed a route to itself")
	}
	if _, ok := agents[1].table[0].precursors[2]; !ok {
		t.Fatal("reverse route did not gain the replying neighbour as precursor")
	}
}
