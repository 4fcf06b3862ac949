package mac

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// nopUpper is an UpperLayer that records nothing, so that only the MAC and
// the layers below it allocate.
type nopUpper struct{}

func (nopUpper) MacRecv(*pkt.Packet, pkt.NodeID, float64)              {}
func (nopUpper) MacSnoop(*pkt.Packet, pkt.NodeID, pkt.NodeID, float64) {}
func (nopUpper) MacSent(*pkt.Packet, pkt.NodeID)                       {}
func (nopUpper) MacSendFailed(*pkt.Packet, pkt.NodeID)                 {}
func (nopUpper) MacQueueFull(*pkt.Packet, pkt.NodeID)                  {}

// quietRig is a rig whose MACs report to nopUpper.
func quietRig(positions []geo.Point) *rig {
	r := buildRig(positions, Config{})
	for _, m := range r.macs {
		m.up = nopUpper{}
	}
	return r
}

// sendAndSettle hands p to MAC 0 and runs the engine until its exchange has
// long ended.
func sendAndSettle(tb testing.TB, r *rig, p *pkt.Packet, to pkt.NodeID) {
	r.macs[0].Send(p, to)
	if err := r.eng.Run(r.eng.Now().Add(5 * sim.Millisecond)); err != nil {
		tb.Fatal(err)
	}
}

// exchangeRigs are the scenes the allocation test and BenchmarkMACExchange
// drive, node 0 sending to the others: an RTS/CTS/DATA/ACK exchange between
// two nodes in range; a broadcast whose only listener is inside
// carrier-sense range but outside reception range, so nobody decodes it;
// and a broadcast that three receivers in range decode, each handed the
// sender's packet itself.
var exchangeRigs = []struct {
	name     string
	peers    []geo.Point
	to       pkt.NodeID
	pkt      func() *pkt.Packet
	decoders int // peers that decode each DATA frame
}{
	{"unicast", []geo.Point{geo.Pt(200, 0)}, 1, func() *pkt.Packet { return data(0, 1, 512) }, 1},
	{"broadcast", []geo.Point{geo.Pt(400, 0)}, pkt.Broadcast, hello, 0},
	{"fanout", []geo.Point{geo.Pt(150, 0), geo.Pt(0, 150), geo.Pt(150, 150)}, pkt.Broadcast, hello, 3},
}

func hello() *pkt.Packet { return pkt.RoutingPacket("HELLO", 0, pkt.Broadcast, 1, 24, 0) }

// TestExchangeAllocatesNothing pins the MAC's ownership rules: once warm, a
// whole unicast exchange and a broadcast reuse the MAC's frame, its
// packet-in-flight slot and its bound callbacks, and a broadcast's
// receivers share the sender's packet, so none of them allocates.
func TestExchangeAllocatesNothing(t *testing.T) {
	for _, tc := range exchangeRigs {
		t.Run(tc.name, func(t *testing.T) {
			r := quietRig(append([]geo.Point{geo.Pt(0, 0)}, tc.peers...))
			p := tc.pkt()
			sendAndSettle(t, r, p, tc.to) // warm pools, lanes and the leg memo
			allocs := testing.AllocsPerRun(20, func() { sendAndSettle(t, r, p, tc.to) })
			if allocs != 0 {
				t.Errorf("%v allocations per %s exchange, want 0", allocs, tc.name)
			}
			// 1 warm-up + AllocsPerRun's own warm-up + 20 measured runs.
			const runs = 22
			if s := r.macs[0].Stats; s.DataSent != runs || s.Retries != 0 {
				t.Fatalf("sender stats %+v, want %d clean data frames", s, runs)
			}
			if tc.to != pkt.Broadcast && r.macs[1].Stats.AckSent != runs {
				t.Fatalf("receiver acknowledged %d of %d", r.macs[1].Stats.AckSent, runs)
			}
			var decoded uint64
			for _, m := range r.macs[1:] {
				decoded += m.Stats.DataRecv
			}
			if want := uint64(tc.decoders * runs); decoded != want {
				t.Fatalf("peers decoded %d DATA frames, want %d", decoded, want)
			}
		})
	}
}

// BenchmarkMACExchange prices one MAC exchange end to end — contention,
// every frame through the channel, and the receiver's responses — with an
// upper layer that does nothing.
func BenchmarkMACExchange(b *testing.B) {
	for _, tc := range exchangeRigs {
		b.Run(tc.name, func(b *testing.B) {
			r := quietRig(append([]geo.Point{geo.Pt(0, 0)}, tc.peers...))
			p := tc.pkt()
			sendAndSettle(b, r, p, tc.to)
			b.ReportAllocs()
			for b.Loop() {
				sendAndSettle(b, r, p, tc.to)
			}
		})
	}
}

// heard is a frame as a listener decoded it, copied at reception.
type heard struct {
	frame Frame
	ptr   *Frame
}

// listener is a phy.Receiver standing in for a MAC: it copies every frame
// it decodes, at the instant it decodes it.
type listener struct {
	heard []heard
}

func (l *listener) OnReceive(payload any, _ pkt.NodeID, _ float64) {
	f := payload.(*Frame)
	l.heard = append(l.heard, heard{frame: *f, ptr: f})
}
func (l *listener) OnChannelBusy() {}
func (l *listener) OnChannelIdle() {}

func listen(r *rig, id pkt.NodeID) *listener {
	l := &listener{}
	r.ch.Radio(id).SetReceiver(l)
	return l
}

// TestOneResponseSlotSuffices pins what lets a MAC keep a single pending
// CTS/ACK: a radio decodes one frame at a time, so two deliveries to a MAC
// are at least the shortest frame's airtime apart, and that outlasts the
// SIFS a response waits before it goes out or is dropped.
func TestOneResponseSlotSuffices(t *testing.T) {
	if shortest := TxTime(min(CTSBytes, AckBytes, RTSBytes, DataHdrBytes)); shortest <= SIFS {
		t.Fatalf("shortest frame lasts %v, not longer than SIFS %v", shortest, SIFS)
	}
}

// TestFarReceiverKeepsItsFrame puts one listener beside the sender and one
// 99 km away, where a frame's last leg lands 330 µs after it leaves: longer
// than the DIFS and short backoff before the sender's next broadcast. The
// sender may not rewrite its frame for that next broadcast while the far
// listener still has the previous one in the air; it sends a fresh frame
// instead, so every listener decodes exactly the fields that were sent.
func TestFarReceiverKeepsItsFrame(t *testing.T) {
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(99_000, 0)}
	r := buildRigParams(pos, Config{}, phy.ParamsForRange(100_000, 100_000))
	near, far := listen(r, 1), listen(r, 2)
	const n = 10
	var sent []*pkt.Packet
	r.eng.ScheduleIn(0, func() {
		for range n {
			p := pkt.RoutingPacket("HELLO", 0, pkt.Broadcast, 1, 24, 0)
			sent = append(sent, p)
			r.macs[0].Send(p, pkt.Broadcast)
		}
	})
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.uppers[0].sent); got != n {
		t.Fatalf("sender completed %d of %d broadcasts", got, n)
	}
	slot := &r.macs[0].frame
	fresh := 0
	for _, l := range []*listener{near, far} {
		if len(l.heard) != n {
			t.Fatalf("listener decoded %d of %d frames", len(l.heard), n)
		}
		for i, h := range l.heard {
			want := Frame{Kind: FrameData, From: 0, To: pkt.Broadcast, Seq: uint16(i + 1), Pkt: sent[i]}
			if h.frame != want {
				t.Errorf("frame %d: decoded %v, sent %v", i, &h.frame, &want)
			}
			if l == far && h.ptr != slot {
				fresh++
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no broadcast overlapped the far leg of the previous one; the scene does not exercise the fresh-frame path")
	}
}
