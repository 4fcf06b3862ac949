package network_test

import (
	"context"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// beat is the body of beaconer's message.
type beat struct {
	N   int
	IDs []pkt.NodeID
}

func (b *beat) Truncate() { b.IDs = b.IDs[:0] }

// heardBeat is a beat as a receiver read it, copied in its Recv.
type heardBeat struct {
	uid uint64
	n   int
	ids int
}

// beaconer is a protocol that sends one repeated broadcast from a pkt.Slot:
// beat n carries n ids. Every node records what it sent and what it heard;
// afterSent, when set, runs when the MAC reports a beat sent.
type beaconer struct {
	direct
	slot      pkt.Slot[beat, *beat]
	sent      []*pkt.Packet
	sentUIDs  []uint64
	heard     []heardBeat
	afterSent func()
}

func (b *beaconer) beacon() {
	n := len(b.sent) + 1
	p, m := b.slot.Routing(b.env, "BEAT", b.env.ID(), pkt.Broadcast, 1, 4*n, b.env.Now())
	m.N = n
	for range n {
		m.IDs = append(m.IDs, b.env.ID())
	}
	b.sent, b.sentUIDs = append(b.sent, p), append(b.sentUIDs, p.UID)
	b.env.SendMac(p, pkt.Broadcast)
}

func (b *beaconer) Recv(p *pkt.Packet, _ pkt.NodeID, _ float64) {
	h := heardBeat{uid: p.UID}
	if m, ok := p.Payload.(*beat); ok {
		h.n, h.ids = m.N, len(m.IDs)
	}
	b.heard = append(b.heard, h)
}

func (b *beaconer) MacSent(*pkt.Packet, pkt.NodeID) {
	if b.afterSent != nil {
		b.afterSent()
	}
}

// beaconWorld builds a world of static beaconers at pos.
func beaconWorld(t *testing.T, pos []geo.Point, radio phy.RadioParams) (*network.World, []*beaconer) {
	t.Helper()
	tracks := make([]*mobility.Track, len(pos))
	for i, p := range pos {
		tracks[i] = mobility.Static(p)
	}
	var agents []*beaconer
	w, err := network.NewWorld(network.Config{
		Tracks: tracks,
		Radio:  radio,
		Protocol: func(pkt.NodeID) network.Protocol {
			b := &beaconer{}
			agents = append(agents, b)
			return b
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	return w, agents
}

// TestReleasedFollowsTheMacAndTheRadio pins Node.Released: a packet is not
// released while the MAC queues it, while it is in flight, when the MAC has
// reported it sent, nor at exactly the radio's HeldUntil; it is released
// strictly after that.
func TestReleasedFollowsTheMacAndTheRadio(t *testing.T) {
	w, agents := beaconWorld(t, []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}, phy.DefaultParams())
	n := w.Node(0)
	var a, b *pkt.Packet
	check := func(when string, p *pkt.Packet, holds, released bool) {
		t.Helper()
		if got := n.Mac.Holds(p); got != holds {
			t.Errorf("%s: Holds = %v, want %v", when, got, holds)
		}
		if got := n.Released(p); got != released {
			t.Errorf("%s: Released = %v, want %v", when, got, released)
		}
	}
	probes := 0
	agents[0].afterSent = func() {
		agents[0].afterSent = nil // probe around a's send only
		check("a reported sent", a, false, false)
		check("b once a is sent", b, true, false)
		held := n.Radio.HeldUntil()
		if held < n.Now() {
			t.Fatalf("HeldUntil %v before the end of the transmission at %v", held, n.Now())
		}
		w.Eng.Schedule(held, func() {
			probes++
			check("a at HeldUntil", a, false, false)
		})
		w.Eng.Schedule(held.Add(sim.Nanosecond), func() {
			probes++
			check("a just after HeldUntil", a, false, true)
			check("b in flight", b, true, false)
		})
	}
	w.Eng.Schedule(sim.At(1), func() {
		agents[0].beacon()
		a = agents[0].sent[0]
		b = pkt.RoutingPacket("X", 0, pkt.Broadcast, 1, 8, n.Now())
		n.SendMac(b, pkt.Broadcast)
		check("a in flight", a, true, false)
		check("b queued", b, true, false)
	})
	if err := w.Run(context.Background(), sim.At(2)); err != nil {
		t.Fatal(err)
	}
	if probes != 2 {
		t.Fatalf("%d of 2 probes ran", probes)
	}
	check("b long after", b, false, true)
	if len(agents[1].heard) != 2 {
		t.Fatalf("receiver heard %d of 2 broadcasts", len(agents[1].heard))
	}
}

// TestFarReceiverForcesANewBeacon sends ten beats, each 100 µs after the MAC
// reports the previous one sent, in the scene of mac's
// TestFarReceiverKeepsItsFrame. With only a near receiver the sender's
// radio has let go of each beat by then, and all ten are one object
// rebuilt. A receiver 99 km away still has each beat in the air 330 µs
// after it leaves, so every beat is a new object. Either way every receiver
// reads each beat as it was sent.
func TestFarReceiverForcesANewBeacon(t *testing.T) {
	near := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}
	for _, tc := range []struct {
		name    string
		pos     []geo.Point
		objects int
	}{
		{"near only", near, 1},
		{"near and far", append(near, geo.Pt(99_000, 0)), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, agents := beaconWorld(t, tc.pos, phy.ParamsForRange(100_000, 100_000))
			const beats = 10
			src := agents[0]
			src.afterSent = func() {
				if len(src.sent) < beats {
					w.Eng.ScheduleIn(100*sim.Microsecond, src.beacon)
				}
			}
			w.Eng.Schedule(sim.At(1), src.beacon)
			if err := w.Run(context.Background(), sim.At(2)); err != nil {
				t.Fatal(err)
			}
			objects := map[*pkt.Packet]bool{}
			for _, p := range src.sent {
				objects[p] = true
			}
			if len(src.sent) != beats || len(objects) != tc.objects {
				t.Errorf("%d beats in %d objects, want %d in %d", len(src.sent), len(objects), beats, tc.objects)
			}
			for i, r := range agents[1:] {
				if len(r.heard) != beats {
					t.Fatalf("receiver %d heard %d of %d beats", i+1, len(r.heard), beats)
				}
				for k, h := range r.heard {
					if want := (heardBeat{uid: src.sentUIDs[k], n: k + 1, ids: k + 1}); h != want {
						t.Errorf("receiver %d read beat %d as %+v, sent %+v", i+1, k+1, h, want)
					}
				}
			}
		})
	}
}
