package mac

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// TestNAVDefersThirdParty verifies virtual carrier sense: a bystander that
// hears an RTS addressed elsewhere must defer its own transmission until
// the announced exchange completes.
func TestNAVDefersThirdParty(t *testing.T) {
	// 0 and 1 exchange; 2 hears both and wants to send to 1 concurrently.
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(150, 0), geo.Pt(75, 100)}
	r := buildRig(pos, Config{})
	p01 := data(0, 1, 512)
	p21 := data(2, 1, 512)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p01, 1) })
	// Node 2 queues its packet shortly after node 0 wins the channel.
	r.eng.ScheduleIn(400*sim.Microsecond, func() { r.macs[2].Send(p21, 1) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[1].recv) != 2 {
		t.Fatalf("receiver got %d/2 under NAV contention", len(r.uppers[1].recv))
	}
	// Both exchanges succeeded without retry storms.
	if r.macs[0].Stats.RetryDrops != 0 || r.macs[2].Stats.RetryDrops != 0 {
		t.Fatal("retry drops under NAV deferral")
	}
}

// TestBackoffEscalatesContentionWindow checks the CW doubling on timeout.
func TestBackoffEscalatesContentionWindow(t *testing.T) {
	r := chainRig(2, 600, Config{}) // peer unreachable → repeated RTS timeouts
	p := data(0, 1, 64)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, 1) })
	if err := r.eng.Run(sim.At(2)); err != nil {
		t.Fatal(err)
	}
	if r.macs[0].Stats.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if r.macs[0].cw != CWMin {
		t.Fatalf("cw = %d after giving up, want reset to %d", r.macs[0].cw, CWMin)
	}
}

// TestBroadcastSharesOnePacket pins the broadcast half of the packet
// ownership contract: every receiver of a broadcast frame gets the sender's
// packet itself, with the sender's UID, and nothing copies it on the way.
func TestBroadcastSharesOnePacket(t *testing.T) {
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(150, 0), geo.Pt(0, 150), geo.Pt(150, 150)}
	r := buildRig(pos, Config{})
	p := pkt.RoutingPacket("X", 0, pkt.Broadcast, 5, 16, 0)
	uid := p.UID
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, pkt.Broadcast) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if len(r.uppers[i].recv) != 1 {
			t.Fatalf("node %d got %d packets", i, len(r.uppers[i].recv))
		}
		if got := r.uppers[i].recv[0]; got != p || got.UID != uid {
			t.Errorf("node %d got %v (uid %d), want the sender's packet (uid %d)", i, got, got.UID, uid)
		}
	}
}

// TestSaturatedChannelDropsAreCounted drives far more load than 2 Mbit/s
// can carry and checks accounting consistency: everything sent is either
// delivered, queued, or counted as a drop.
func TestSaturatedChannelDropsAreCounted(t *testing.T) {
	r := chainRig(2, 150, Config{})
	const n = 300
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < n; i++ {
			p := data(0, 1, 1400)
			p.Seq = uint32(i)
			r.macs[0].Send(p, 1)
		}
	})
	if err := r.eng.Run(sim.At(2)); err != nil {
		t.Fatal(err)
	}
	delivered := uint64(len(r.uppers[1].recv))
	dropped := r.macs[0].Stats.QueueDrops
	pending := uint64(len(r.macs[0].queue.items))
	inFlight := uint64(0)
	if r.macs[0].cur.p != nil {
		inFlight = 1
	}
	if delivered+dropped+pending+inFlight != n {
		t.Fatalf("accounting leak: %d delivered + %d dropped + %d pending + %d in flight != %d",
			delivered, dropped, pending, inFlight, n)
	}
	if dropped == 0 {
		t.Fatal("saturation produced no queue drops")
	}
}
