package dsdv

import (
	"testing"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// updateEnv is a node whose MAC keeps only the last packet handed to it;
// released says whether the node's radio has let go of it.
type updateEnv struct {
	eng      *sim.Engine
	rng      *sim.RNG
	last     *pkt.Packet
	sends    int
	released bool
}

func (e *updateEnv) ID() pkt.NodeID      { return 0 }
func (e *updateEnv) Now() sim.Time       { return e.eng.Now() }
func (e *updateEnv) Engine() *sim.Engine { return e.eng }
func (e *updateEnv) RNG() *sim.RNG       { return e.rng }
func (e *updateEnv) NumNodes() int       { return 41 }
func (e *updateEnv) SendMac(p *pkt.Packet, _ pkt.NodeID) {
	e.last = p
	e.sends++
}
func (e *updateEnv) Deliver(*pkt.Packet, pkt.NodeID)    {}
func (e *updateEnv) Drop(*pkt.Packet, stats.DropReason) {}
func (e *updateEnv) FlushNextHop(pkt.NodeID)            {}
func (e *updateEnv) Released(*pkt.Packet) bool          { return e.released }

// tableOf40 is an agent on env whose table holds 40 routes, none changed.
func tableOf40(env *updateEnv) *DSDV {
	d := New(Config{})
	d.Start(env)
	for id := pkt.NodeID(1); id <= 40; id++ {
		d.table[id] = &entry{dst: id, nextHop: 1, metric: int(id%5) + 1, seq: 2 * uint32(id)}
	}
	return d
}

// checkUpdate reports an UPDATE that does not advertise n routes.
func checkUpdate(t *testing.T, name string, p *pkt.Packet, n int) {
	t.Helper()
	if got := len(p.Payload.(*update).Routes); got != n {
		t.Errorf("%s: update advertises %d routes, want %d", name, got, n)
	}
	if want := 4 + entryBytes*n + pkt.IPHeaderBytes; p.Size != want {
		t.Errorf("%s: update size %d, want %d", name, p.Size, want)
	}
}

// TestUpdateAllocations pins the cost of DSDV's updates on a 40-route
// table. While the radio still holds the last update, a full dump is a new
// message and one route array. Once it is released, full dumps and
// triggered updates rebuild that message in place, and arming and firing a
// trigger allocates nothing either.
func TestUpdateAllocations(t *testing.T) {
	env := &updateEnv{eng: sim.NewEngine(), rng: sim.NewRNG(1)}
	d := tableOf40(env)
	d.fullDump()
	checkUpdate(t, "full dump", env.last, 41)
	if n := testing.AllocsPerRun(100, d.fullDump); n != 2 {
		t.Errorf("full dump made %v allocations, want 2", n)
	}

	env.released = true
	held, uid := env.last, env.last.UID
	if n := testing.AllocsPerRun(100, d.fullDump); n != 0 {
		t.Errorf("released full dump made %v allocations, want 0", n)
	}
	if env.last != held || env.last.UID == uid {
		t.Error("released full dump is not the held update rebuilt with a fresh UID")
	}
	checkUpdate(t, "released full dump", env.last, 41)

	trigger := func() {
		d.table[7].changed, d.table[9].changed = true, true
		d.scheduleTrigger()
		if err := env.eng.Run(env.eng.Now().Add(2 * sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, trigger); n != 0 {
		t.Errorf("released triggered update made %v allocations, want 0", n)
	}
	if env.last != held {
		t.Error("triggered update does not share the full dump's message")
	}
	checkUpdate(t, "triggered update", env.last, 2)

	sends := env.sends
	d.fireTrigger()
	if env.sends != sends {
		t.Error("a trigger with no changed route sent an update")
	}
}
