package autoconf

import (
	"testing"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/rtest"
	"adhocsim/internal/sim"
)

// clique builds n static nodes 30 m apart — every pair in radio range —
// and returns the harness with each node's agent.
func clique(t *testing.T, n int) (*rtest.Harness, []*Autoconf) {
	t.Helper()
	agents := make([]*Autoconf, n)
	h := rtest.NewChain(t, n, 30, func(id pkt.NodeID) network.Protocol {
		agents[id] = New(Config{})
		return agents[id]
	})
	return h, agents
}

// requireDistinctConverged fails unless every agent holds a converged claim
// no other agent shares.
func requireDistinctConverged(t *testing.T, agents []*Autoconf) {
	t.Helper()
	owner := map[uint32]int{}
	for i, a := range agents {
		addr, converged, at := a.AutoconfState()
		if !converged || at <= 0 {
			t.Errorf("node %d unconverged (addr %d, at %v)", i, addr, at)
		}
		if j, dup := owner[addr]; dup {
			t.Errorf("nodes %d and %d both hold address %d", j, i, addr)
		}
		owner[addr] = i
	}
}

// TestStaticCliqueConverges: every node of a static clique ends up with a
// converged, unique address, and the census reports when the slowest one
// got there and no surviving collision.
func TestStaticCliqueConverges(t *testing.T) {
	h, agents := clique(t, 8)
	h.Run(5)
	requireDistinctConverged(t, agents)
	res := h.World.Collector.Finalize()
	// Three probe rounds 500 ms apart: convergence takes at least 1.5 s.
	if res.TimeToConverge < 1.5 || res.TimeToConverge >= 5 {
		t.Errorf("time_to_converge = %v s, want within [1.5, 5)", res.TimeToConverge)
	}
	if res.AddrCollisionRate != 0 {
		t.Errorf("addr_collision_rate = %v after convergence, want 0", res.AddrCollisionRate)
	}
}

// TestCensusChargesUnconvergedNodeTheFullRun: a run that ends before the
// probe rounds finish reports the horizon as time_to_converge.
func TestCensusChargesUnconvergedNodeTheFullRun(t *testing.T) {
	h, agents := clique(t, 4)
	h.Run(1)
	if _, converged, _ := agents[0].AutoconfState(); converged {
		t.Fatal("node 0 converged inside one second of 500 ms probe rounds")
	}
	if got := h.World.Collector.Finalize().TimeToConverge; got != 1 {
		t.Errorf("time_to_converge = %v s, want the 1 s horizon", got)
	}
}

// TestRejoinReclaimsAndOwnerDefends: a node that goes Down drops its claim
// and re-runs the procedure on Up; when its new claim lands on an address
// an established neighbour holds, that neighbour's DEFEND pushes it off to
// a fresh address (probe → defend), and the owner's claim is untouched.
func TestRejoinReclaimsAndOwnerDefends(t *testing.T) {
	h, agents := clique(t, 3)
	h.Run(4)
	requireDistinctConverged(t, agents)
	owner, rejoiner := agents[0], agents[2]
	ownerAddr, _, ownerAt := owner.AutoconfState()

	h.World.Eng.Schedule(sim.At(5), func() {
		rejoiner.Down(sim.At(5))
		if _, converged, _ := rejoiner.AutoconfState(); converged {
			t.Error("claim survived Down")
		}
		rejoiner.Up(sim.At(5))
		rejoiner.addr = ownerAddr // force the collision before the first probe
	})
	h.Run(10)

	if n := h.World.Collector.Finalize().RoutingByType["DEFEND"]; n == 0 {
		t.Error("no DEFEND sent for a claim on an established address")
	}
	requireDistinctConverged(t, agents)
	if _, _, at := rejoiner.AutoconfState(); at <= sim.At(5) {
		t.Errorf("rejoiner's convergence instant %v predates its rejoin", at)
	}
	if addr, converged, at := owner.AutoconfState(); addr != ownerAddr || !converged || at != ownerAt {
		t.Errorf("owner's claim moved: %d converged=%v at %v, was %d at %v", addr, converged, at, ownerAddr, ownerAt)
	}
}
