package phy

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// phyModes are the two reception models every leg passes through.
var phyModes = map[string]Config{"capture": {}, "sinr": {SINR: true}}

// TestWarmTransmitAllocatesNothing: once the leg pool, the lanes and the
// engine's event list are warm, a transmission to several receivers and
// everything it schedules allocate nothing.
func TestWarmTransmitAllocatesNothing(t *testing.T) {
	const n = 8
	for name, cfg := range phyModes {
		eng, ch, _ := buildTableWorld(n, 0, cfg)
		rcv := make([]countingReceiver, n)
		for i := range rcv {
			ch.Radio(pkt.NodeID(i)).SetReceiver(&rcv[i])
		}
		transmit := func() {
			ch.Radio(3).Transmit(nil, sim.Millisecond)
			if err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
		}
		transmit()
		if allocs := testing.AllocsPerRun(100, transmit); allocs != 0 {
			t.Errorf("%s: warm transmit to %d receivers allocates %v objects", name, n-1, allocs)
		}
		if ch.Deliveries == 0 {
			t.Fatalf("%s: nothing decoded", name)
		}
	}
}

// TestLegsReturnToPool: every leg goes back to the pool once the air has
// cleared, whatever its arrival started — an air departure, a reception
// that survives, one that dies to a capturing newcomer, to a collision, to
// its receiver transmitting or to its receiver powering down — so repeating
// a scene allocates nothing, and the pool holds each leg once.
func TestLegsReturnToPool(t *testing.T) {
	const frame = sim.Millisecond
	const overlap = 100 * sim.Microsecond
	type step struct {
		after sim.Duration
		do    func(ch *Channel)
	}
	tx := func(id pkt.NodeID) func(*Channel) {
		return func(ch *Channel) { ch.Radio(id).Transmit(nil, frame) }
	}
	setUp := func(id pkt.NodeID, up bool) func(*Channel) {
		return func(ch *Channel) { ch.SetNodeUp(id, up) }
	}
	// Radio 0 receives. Radio 1 is near it, radio 2 far; radio 3 is as far
	// as radio 2 on the other side, so their frames collide at radio 0.
	const rx, near, far, rival = 0, 1, 2, 3
	scenes := []struct {
		name    string
		steps   []step
		decoded int // frames radio 0 decodes
	}{
		{"current captures", []step{{0, tx(near)}, {overlap, tx(far)}}, 1},
		{"newcomer captures", []step{{0, tx(far)}, {overlap, tx(near)}}, 1},
		{"collision", []step{{0, tx(far)}, {overlap, tx(rival)}}, 0},
		{"transmit while receiving", []step{{0, tx(far)}, {overlap, tx(rx)}}, 0},
		{"down mid-reception", []step{{0, tx(far)}, {overlap, setUp(rx, false)}, {5 * frame, setUp(rx, true)}}, 0},
		{"down before landing", []step{{0, tx(far)}, {0, setUp(rx, false)}, {5 * frame, setUp(rx, true)}}, 0},
	}
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),
		mobility.Static(geo.Pt(50, 0)),
		mobility.Static(geo.Pt(200, 0)),
		mobility.Static(geo.Pt(-210, 0)),
	}
	for mode, cfg := range phyModes {
		for _, sc := range scenes {
			eng := sim.NewEngine()
			ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
			rcv := make([]*countingReceiver, len(tracks))
			for i := range rcv {
				rcv[i] = &countingReceiver{}
			}
			attachTracks(ch, tracks, rcv)
			fns := make([]sim.EventFunc, len(sc.steps))
			for i, s := range sc.steps {
				fns[i] = func() { s.do(ch) }
			}
			play := func() {
				now := eng.Now()
				for i, s := range sc.steps {
					eng.Schedule(now.Add(s.after), fns[i])
				}
				if err := eng.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
			play()
			if rcv[rx].got != sc.decoded {
				t.Fatalf("%s, %s: radio 0 decoded %d frames, want %d", mode, sc.name, rcv[rx].got, sc.decoded)
			}
			if allocs := testing.AllocsPerRun(20, play); allocs != 0 {
				t.Errorf("%s, %s: a repeat allocates %v objects: legs are not returning to the pool", mode, sc.name, allocs)
			}
			for _, r := range ch.radios {
				if r.rx != nil || r.airCount != 0 || r.airPower != 0 {
					t.Fatalf("%s, %s: radio %v holds rx %v, %d in air (%g W) after the air cleared", mode, sc.name, r.id, r.rx, r.airCount, r.airPower)
				}
			}
			seen := make(map[*legEvent]bool, len(ch.legPool))
			for _, le := range ch.legPool {
				if seen[le] || le.refs != 0 || le.payload != nil {
					t.Fatalf("%s, %s: pooled leg twice or still held: refs %d", mode, sc.name, le.refs)
				}
				seen[le] = true
			}
			if len(ch.legPool) == 0 {
				t.Fatalf("%s, %s: empty pool", mode, sc.name)
			}
		}
	}
}
