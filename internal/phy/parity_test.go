package phy

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// countingReceiver tallies deliveries and busy edges without retaining
// payloads.
type countingReceiver struct {
	got  int
	busy int
}

func (c *countingReceiver) OnReceive(any, pkt.NodeID, float64) { c.got++ }
func (c *countingReceiver) OnChannelBusy()                     { c.busy++ }
func (c *countingReceiver) OnChannelIdle()                     {}

// runScripted wires n radios over the tracks, replays the transmission
// script and returns the channel plus per-radio delivery counts.
func runScripted(t *testing.T, tracks []*mobility.Track, cfg Config, script []struct {
	at  sim.Time
	who pkt.NodeID
	dur sim.Duration
}) (*Channel, []int) {
	t.Helper()
	eng := sim.NewEngine()
	ch := NewChannelWithConfig(eng, DefaultParams(), cfg)
	rcvs := make([]*countingReceiver, len(tracks))
	for i := range rcvs {
		rcvs[i] = &countingReceiver{}
	}
	attachTracks(ch, tracks, rcvs)
	for _, s := range script {
		s := s
		eng.Schedule(s.at, func() {
			r := ch.Radio(s.who)
			if !r.Transmitting() {
				r.Transmit(int(s.who), s.dur)
			}
		})
	}
	if err := eng.Run(sim.At(200)); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(rcvs))
	for i, r := range rcvs {
		got[i] = r.got
	}
	return ch, got
}

// TestGridBruteforceParity replays identical random transmission scripts
// over random mobile scenarios with the spatial index on and off, in both
// reception modes (pairwise capture and cumulative-interference SINR), and
// requires identical delivery/collision/capture accounting — the
// bit-determinism contract of the fast path. The SINR rows double as the
// acceptance test that cumulative interference needs no brute-force
// fallback: the interference sum is floored at the carrier-sense
// threshold, so grid and brute-force candidate sets agree.
func TestGridBruteforceParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		nodes int
		area  geo.Rect
		speed float64
		sinr  bool
	}{
		{"dense-mobile", 1, 40, geo.Rect{W: 1500, H: 300}, 20, false},
		{"sparse-mobile", 2, 60, geo.Rect{W: 4000, H: 4000}, 20, false},
		{"fast-mobile", 3, 30, geo.Rect{W: 2000, H: 500}, 35, false},
		{"static", 4, 50, geo.Rect{W: 1200, H: 1200}, 0, false},
		{"dense-mobile-sinr", 1, 40, geo.Rect{W: 1500, H: 300}, 20, true},
		{"fast-mobile-sinr", 3, 30, geo.Rect{W: 2000, H: 500}, 35, true},
		{"static-sinr", 4, 50, geo.Rect{W: 1200, H: 1200}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(tc.seed)
			model := mobility.RandomWaypoint{Area: tc.area, MinSpeed: 1, MaxSpeed: tc.speed}
			if tc.speed == 0 {
				model.MinSpeed = 0
			}
			tracks, err := model.Generate(tc.nodes, 200*sim.Second, rng.ForkNamed("mobility"))
			if err != nil {
				t.Fatal(err)
			}
			script := make([]struct {
				at  sim.Time
				who pkt.NodeID
				dur sim.Duration
			}, 400)
			srng := rng.ForkNamed("script")
			for i := range script {
				script[i].at = sim.Time(0).Add(srng.DurationUniform(0, 190*sim.Second))
				script[i].who = pkt.NodeID(srng.Intn(tc.nodes))
				script[i].dur = srng.DurationUniform(sim.Millisecond, 4*sim.Millisecond)
			}
			speedBound := mobility.MaxTrackSpeed(tracks)
			grid, gridGot := runScripted(t, tracks, Config{ReindexInterval: sim.Second, SpeedBound: speedBound, SINR: tc.sinr}, script)
			brute, bruteGot := runScripted(t, tracks, Config{BruteForce: true, SINR: tc.sinr}, script)
			if grid.Transmissions != brute.Transmissions ||
				grid.Deliveries != brute.Deliveries ||
				grid.Collisions != brute.Collisions ||
				grid.Captures != brute.Captures {
				t.Fatalf("counter mismatch: grid tx=%d dlv=%d col=%d cap=%d, brute tx=%d dlv=%d col=%d cap=%d",
					grid.Transmissions, grid.Deliveries, grid.Collisions, grid.Captures,
					brute.Transmissions, brute.Deliveries, brute.Collisions, brute.Captures)
			}
			if grid.Deliveries == 0 && tc.name != "sparse-mobile" {
				t.Fatal("degenerate scenario: nothing delivered")
			}
			for i := range gridGot {
				if gridGot[i] != bruteGot[i] {
					t.Fatalf("radio %d: grid received %d, brute %d", i, gridGot[i], bruteGot[i])
				}
			}
			if grid.Reindexes == 0 {
				t.Fatal("spatial index never built")
			}
		})
	}
}

// TestIntervalWithoutSpeedBoundStaysExact checks the misconfiguration
// guard: a reindex interval with no speed bound cannot pad the query, so
// the channel must fall back to exact per-timestamp reindexing instead of
// freezing the index at the first build.
func TestIntervalWithoutSpeedBoundStaysExact(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannelWithConfig(eng, DefaultParams(), Config{ReindexInterval: 10 * sim.Second})
	c0, c1 := &countingReceiver{}, &countingReceiver{}
	track := mobility.MustTrack([]mobility.Segment{{Start: 0, From: geo.Pt(5000, 0), To: geo.Pt(100, 0), Speed: 700}})
	attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), track}, []*countingReceiver{c0, c1})
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("far", sim.Millisecond) })
	eng.Schedule(sim.At(7), func() { ch.Radio(0).Transmit("near", sim.Millisecond) })
	if err := eng.Run(sim.At(10)); err != nil {
		t.Fatal(err)
	}
	if c1.got != 1 {
		t.Fatalf("moved-in node received %d frames, want 1 (index froze?)", c1.got)
	}
}

// TestExactReindexDefault checks the zero-Config path: moving nodes are
// re-captured whenever the clock advances, so even without a speed bound
// the index can never go stale.
func TestExactReindexDefault(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, DefaultParams())
	c0, c1 := &countingReceiver{}, &countingReceiver{}
	// Node 1 warps from far out of range to 100 m between transmissions.
	track := mobility.MustTrack([]mobility.Segment{{Start: 0, From: geo.Pt(5000, 0), To: geo.Pt(100, 0), Speed: 700}})
	attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), track}, []*countingReceiver{c0, c1})
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("far", sim.Millisecond) })
	eng.Schedule(sim.At(7), func() { ch.Radio(0).Transmit("near", sim.Millisecond) })
	if err := eng.Run(sim.At(10)); err != nil {
		t.Fatal(err)
	}
	if c1.got != 1 {
		t.Fatalf("moved-in node received %d frames, want 1", c1.got)
	}
}
