package phy

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// buildTableWorld wires n table-backed radios (the network layer's
// configuration) on a fresh engine: spread deterministically over a 400 m
// square — one carrier-sense domain — each drifting towards its mirror point
// at speed m/s (0: a scene at rest).
func buildTableWorld(n int, speed float64, cfg Config) (*sim.Engine, *Channel, []*collector) {
	const side = 400
	tracks := make([]*mobility.Track, n)
	for i := range tracks {
		x := side * float64((i*31)%97) / 97
		y := side * float64((i*57)%89) / 89
		tracks[i] = mobility.MustTrack([]mobility.Segment{{
			From:  geo.Point{X: x, Y: y},
			To:    geo.Point{X: side - x, Y: side - y},
			Speed: speed,
		}})
	}
	eng := sim.NewEngine()
	ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
	cols := newCollectors(n)
	attachTracks(ch, tracks, cols)
	return eng, ch, cols
}

// TestLaneBatchOnEveryTransmitPath: the indexed and brute-force paths both
// schedule a transmission's legs in (delay, NodeID) order, so after a
// transmit in a single carrier-sense domain the whole batch sits in the
// arrival lane — none of it in the queue — and once
// the legs have landed, every receiver's watchdog and every decodable
// frame's end sit in the end lane.
func TestLaneBatchOnEveryTransmitPath(t *testing.T) {
	const n = 48
	for name, cfg := range map[string]Config{
		"indexed": {},
		"brute":   {BruteForce: true},
		"sinr":    {SINR: true},
	} {
		eng, ch, cols := buildTableWorld(n, 4, cfg)
		ch.Radio(7).Transmit("frame", sim.Millisecond)
		if got := ch.arrivals.Len(); got != n-1 {
			t.Fatalf("%s: arrival lane holds %d of %d legs", name, got, n-1)
		}
		// The sender's own busy watchdog is the only other pending event.
		if ch.ends.Len() != 1 || eng.Len() != n {
			t.Fatalf("%s: end lane holds %d, engine %d pending; want 1 and %d", name, ch.ends.Len(), eng.Len(), n)
		}
		if err := eng.Run(sim.Time(100 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if ch.arrivals.Len() != 0 {
			t.Fatalf("%s: %d legs still in flight after 100 µs", name, ch.arrivals.Len())
		}
		if got := ch.ends.Len(); got != eng.Len() || got < n {
			t.Fatalf("%s: end lane holds %d of %d pending end-of-frame events (at least %d watchdogs)", name, got, eng.Len(), n)
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for i, c := range cols {
			delivered += len(c.got)
			if i != 7 && (c.busy != 1 || c.idle != 1) {
				t.Fatalf("%s: node %d saw %d busy / %d idle edges, want 1/1", name, i, c.busy, c.idle)
			}
		}
		if delivered == 0 || uint64(delivered) != ch.Deliveries {
			t.Fatalf("%s: %d deliveries observed, channel counted %d", name, delivered, ch.Deliveries)
		}
	}
}

// BenchmarkTransmitDense prices one transmission in the paper's regime: 40
// radios inside one carrier-sense domain, each Transmit fanning out to the
// other 39 and drained to idle (arrival, reception end or carrier-only
// energy, busy watchdog per receiver) with receivers that do nothing. One op
// is one transmission with everything it schedules. rest is the scene
// before anything moves — the sender's kept leg list replayed — and moving
// re-derives and sorts the legs per transmit; both settle at 0 allocs/op.
// moving500 is a domain of 500, past the size sortLegs sorts by insertion.
func BenchmarkTransmitDense(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		speed float64
	}{{"rest", 40, 0}, {"moving", 40, 4}, {"moving500", 500, 4}} {
		n, speed := bc.n, bc.speed
		b.Run(bc.name, func(b *testing.B) {
			eng, ch, _ := buildTableWorld(n, speed, Config{ReindexInterval: sim.Second, SpeedBound: speed})
			for i := 0; i < n; i++ {
				ch.Radio(pkt.NodeID(i)).SetReceiver(&countingReceiver{})
			}
			transmit := func(i int) {
				ch.Radio(pkt.NodeID(i%n)).Transmit(nil, sim.Millisecond)
				if err := eng.RunAll(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				transmit(i) // fill the pools (and, at rest, every sender's list)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transmit(i)
			}
			b.StopTimer()
			if (ch.memo != nil) != (speed == 0) {
				b.Fatalf("leg lists kept: %v at %v m/s", ch.memo != nil, speed)
			}
			b.ReportMetric(float64(eng.Executed)/float64(b.N+n), "events/op")
		})
	}
}
