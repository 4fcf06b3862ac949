package phy

import (
	"math/rand"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// TestCapturePropertyRandomized fuzzes two overlapping transmissions at
// random distances and asserts the capture invariants: the receiver decodes
// at most one frame; if it decodes one, that frame was at least
// CaptureRatio times stronger than the competitor; and frames below the
// reception threshold are never decoded.
func TestCapturePropertyRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	params := DefaultParams()
	for trial := 0; trial < 300; trial++ {
		d1 := 20 + r.Float64()*500
		d2 := 20 + r.Float64()*500
		gap := sim.Duration(r.Int63n(int64(500 * sim.Microsecond)))

		eng := sim.NewEngine()
		ch := NewChannel(eng, params)
		rx := &collector{}
		attachTracks(ch, []*mobility.Track{
			mobility.Static(geo.Pt(0, 0)),
			mobility.Static(geo.Pt(d1, 0)),
			mobility.Static(geo.Pt(0, d2)),
		}, []Receiver{rx, &collector{}, &collector{}})
		eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("one", sim.Millisecond) })
		eng.Schedule(sim.Time(gap), func() { ch.Radio(2).Transmit("two", sim.Millisecond) })
		if err := eng.Run(sim.At(1)); err != nil {
			t.Fatal(err)
		}

		if len(rx.got) > 1 {
			t.Fatalf("trial %d: decoded %d overlapping frames", trial, len(rx.got))
		}
		p1 := params.Prop.RxPower(params.TxPower, d1)
		p2 := params.Prop.RxPower(params.TxPower, d2)
		if len(rx.got) == 1 {
			winner := rx.got[0]
			var pw, pl float64
			if winner == "one" {
				pw, pl = p1, p2
			} else {
				pw, pl = p2, p1
			}
			if pw < params.RxThreshold {
				t.Fatalf("trial %d: decoded frame below rx threshold (d1=%.0f d2=%.0f)", trial, d1, d2)
			}
			// The capture margin applies only between decodable
			// frames: sub-reception-threshold energy raises carrier
			// sense but does not contest a reception — the ns-2 model
			// this PHY reproduces has no cumulative-SINR tracking.
			if pl >= params.RxThreshold && pw < params.CaptureRatio*pl {
				t.Fatalf("trial %d: capture without %gx margin (pw=%g pl=%g d1=%.0f d2=%.0f)",
					trial, params.CaptureRatio, pw, pl, d1, d2)
			}
		}
	}
}

// TestSINRPropertyRandomized extends the capture fuzz to cumulative-
// interference mode: two overlapping transmissions at random distances,
// decoded under SINR and under pairwise capture. Invariants: at most one
// frame decodes; a decoded frame cleared the reception threshold and the
// CaptureRatio margin over every interferer at or above the carrier-sense
// threshold (capture only demands the margin over *decodable*
// interferers); and with exactly two arrivals SINR is strictly stricter,
// so its decode set is a subset of capture's.
func TestSINRPropertyRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	params := DefaultParams()
	for trial := 0; trial < 300; trial++ {
		d1 := 20 + r.Float64()*500
		d2 := 20 + r.Float64()*500
		gap := sim.Duration(r.Int63n(int64(500 * sim.Microsecond)))

		run := func(cfg Config) *collector {
			eng := sim.NewEngine()
			ch := NewChannelWithConfig(eng, params, cfg)
			rx := &collector{}
			attachTracks(ch, []*mobility.Track{
				mobility.Static(geo.Pt(0, 0)),
				mobility.Static(geo.Pt(d1, 0)),
				mobility.Static(geo.Pt(0, d2)),
			}, []Receiver{rx, &collector{}, &collector{}})
			eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("one", sim.Millisecond) })
			eng.Schedule(sim.Time(gap), func() { ch.Radio(2).Transmit("two", sim.Millisecond) })
			if err := eng.Run(sim.At(1)); err != nil {
				t.Fatal(err)
			}
			return rx
		}
		sinr := run(Config{SINR: true})
		capt := run(Config{})

		if len(sinr.got) > 1 {
			t.Fatalf("trial %d: SINR decoded %d overlapping frames", trial, len(sinr.got))
		}
		p1 := params.Prop.RxPower(params.TxPower, d1)
		p2 := params.Prop.RxPower(params.TxPower, d2)
		if len(sinr.got) == 1 {
			winner := sinr.got[0]
			var pw, pl float64
			if winner == "one" {
				pw, pl = p1, p2
			} else {
				pw, pl = p2, p1
			}
			if pw < params.RxThreshold {
				t.Fatalf("trial %d: SINR decoded frame below rx threshold (d1=%.0f d2=%.0f)", trial, d1, d2)
			}
			// Unlike capture, sub-reception energy above the CS threshold
			// contests the SINR.
			if pl >= params.CSThreshold && pw < params.CaptureRatio*pl {
				t.Fatalf("trial %d: SINR decode without %gx margin over CS-level interference (pw=%g pl=%g)",
					trial, params.CaptureRatio, pw, pl)
			}
			// Two-arrival scenes: anything SINR decodes, capture decodes.
			if len(capt.got) != 1 || capt.got[0] != winner {
				t.Fatalf("trial %d: SINR decoded %q but capture decoded %v", trial, winner, capt.got)
			}
		}
	}
}

// TestCumulativeInterferenceKillsReception is the Fu/Liew/Huang scenario
// the SINR mode exists for: three interferers, each individually weak
// enough for pairwise capture to shrug off (signal/interferer = 16 > 10),
// are collectively fatal (signal/Σ = 16/3 < 10). Capture delivers the
// frame; SINR must corrupt it.
func TestCumulativeInterferenceKillsReception(t *testing.T) {
	tracks := []*mobility.Track{
		mobility.Static(geo.Pt(0, 0)),   // receiver
		mobility.Static(geo.Pt(100, 0)), // signal sender
		mobility.Static(geo.Pt(0, 200)), // interferers at 200 m: (200/100)⁴ = 16 per head
		mobility.Static(geo.Pt(-200, 0)),
		mobility.Static(geo.Pt(0, -200)),
	}
	run := func(cfg Config) (*collector, *Channel) {
		eng := sim.NewEngine()
		ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
		rx := &collector{}
		attachTracks(ch, tracks, []Receiver{rx, &collector{}, &collector{}, &collector{}, &collector{}})
		eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("sig", sim.Millisecond) })
		for i, at := range []sim.Duration{100 * sim.Microsecond, 150 * sim.Microsecond, 200 * sim.Microsecond} {
			who := pkt.NodeID(2 + i)
			eng.ScheduleIn(at, func() { ch.Radio(who).Transmit("noise", sim.Millisecond) })
		}
		if err := eng.Run(sim.At(1)); err != nil {
			t.Fatal(err)
		}
		return rx, ch
	}
	capt, _ := run(Config{})
	if len(capt.got) != 1 || capt.got[0] != "sig" {
		t.Fatalf("pairwise capture got %v, want the signal frame", capt.got)
	}
	sinr, ch := run(Config{SINR: true})
	if len(sinr.got) != 0 {
		t.Fatalf("SINR decoded %v under 16/3 cumulative interference", sinr.got)
	}
	if ch.Collisions == 0 {
		t.Fatal("cumulative loss not accounted as a collision")
	}
}

// TestSubRxCumulativeInterference: three interferers between the CS and RX
// thresholds, each individually clearing the pairwise 10× margin
// ((430/240)⁴ ≈ 10.3), so capture delivers the signal — while their summed
// sub-decodable energy (10.3/3 ≈ 3.4 < 10) sinks the SINR. This is the
// carrier-sense blind spot of the pairwise model: energy too weak to ever
// decode still jams.
func TestSubRxCumulativeInterference(t *testing.T) {
	run := func(cfg Config) *collector {
		eng := sim.NewEngine()
		ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
		rx := &collector{}
		attachTracks(ch, []*mobility.Track{
			mobility.Static(geo.Pt(0, 0)),
			mobility.Static(geo.Pt(240, 0)),
			mobility.Static(geo.Pt(0, 430)),
			mobility.Static(geo.Pt(-430, 0)),
			mobility.Static(geo.Pt(0, -430)),
		}, []Receiver{rx, &collector{}, &collector{}, &collector{}, &collector{}})
		eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("sig", sim.Millisecond) })
		for i, at := range []sim.Duration{100 * sim.Microsecond, 150 * sim.Microsecond, 200 * sim.Microsecond} {
			who := pkt.NodeID(2 + i)
			eng.ScheduleIn(at, func() { ch.Radio(who).Transmit("hum", sim.Millisecond) })
		}
		if err := eng.Run(sim.At(1)); err != nil {
			t.Fatal(err)
		}
		return rx
	}
	if capt := run(Config{}); len(capt.got) != 1 || capt.got[0] != "sig" {
		t.Fatalf("capture got %v, want the signal (each hum is 10.3× down)", capt.got)
	}
	if sinr := run(Config{SINR: true}); len(sinr.got) != 0 {
		t.Fatalf("SINR got %v, want nothing (summed CS-level interference counts)", sinr.got)
	}
}

// TestSINRSoloTrafficMatchesCapture: without overlap the two reception
// models must agree exactly — SINR only changes contested receptions.
func TestSINRSoloTrafficMatchesCapture(t *testing.T) {
	for _, d := range []float64{50, 150, 249, 251, 400, 600} {
		run := func(cfg Config) *collector {
			eng := sim.NewEngine()
			ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
			rx := &collector{}
			attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(d, 0))}, []Receiver{rx, &collector{}})
			for i := 0; i < 3; i++ {
				at := sim.At(float64(i) * 0.01)
				eng.Schedule(at, func() { ch.Radio(1).Transmit("x", sim.Millisecond) })
			}
			if err := eng.Run(sim.At(1)); err != nil {
				t.Fatal(err)
			}
			return rx
		}
		capt, sinr := run(Config{}), run(Config{SINR: true})
		if len(capt.got) != len(sinr.got) || capt.busy != sinr.busy || capt.idle != sinr.idle {
			t.Fatalf("d=%.0f: capture got %d busy/idle %d/%d, SINR got %d busy/idle %d/%d",
				d, len(capt.got), capt.busy, capt.idle, len(sinr.got), sinr.busy, sinr.idle)
		}
	}
}

// TestInterferenceOnlyNeverDecodes places the sender between CS and RX
// thresholds: energy is sensed but nothing may be decoded.
func TestInterferenceOnlyNeverDecodes(t *testing.T) {
	for _, d := range []float64{251, 300, 400, 549} {
		eng := sim.NewEngine()
		ch := NewChannel(eng, DefaultParams())
		rx := &collector{}
		attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(d, 0))}, []Receiver{rx, &collector{}})
		eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("x", sim.Millisecond) })
		if err := eng.Run(sim.At(1)); err != nil {
			t.Fatal(err)
		}
		if len(rx.got) != 0 {
			t.Fatalf("decoded frame from %.0f m (beyond 250 m)", d)
		}
		if rx.busy != 1 || rx.idle != 1 {
			t.Fatalf("carrier sense at %.0f m: busy/idle %d/%d", d, rx.busy, rx.idle)
		}
	}
}

// TestRadioStatsAccounting checks the channel counts every frame sent and
// every frame decoded.
func TestRadioStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, DefaultParams())
	rx := &collector{}
	attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(100, 0))}, []Receiver{rx, &collector{}})
	for i := 0; i < 5; i++ {
		at := sim.At(float64(i) * 0.01)
		eng.Schedule(at, func() { ch.Radio(1).Transmit("x", sim.Millisecond) })
	}
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if ch.Transmissions != 5 || ch.Deliveries != 5 {
		t.Fatalf("channel tx/rx = %d/%d", ch.Transmissions, ch.Deliveries)
	}
}
