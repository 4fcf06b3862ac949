package phy

import (
	"slices"
	"sort"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// restScene is 40 waypoint nodes in the paper's strip that pause 50 s and
// then travel at 20 m/s, with a transmission script spanning the whole
// 200 s: dense enough that every sender transmits several times inside the
// rest window, and with one transmission at exactly the rest horizon and
// one a nanosecond before it.
func restScene(t *testing.T) (tracks []*mobility.Track, shots []restShot) {
	t.Helper()
	const nodes = 40
	rng := sim.NewRNG(5)
	model := mobility.RandomWaypoint{Area: geo.Rect{W: 1500, H: 300}, MinSpeed: 20, MaxSpeed: 20, Pause: 50 * sim.Second}
	tracks, err := model.Generate(nodes, 200*sim.Second, rng.ForkNamed("mobility"))
	if err != nil {
		t.Fatal(err)
	}
	rest := mobility.NewTable(tracks).RestUntil()
	if rest != sim.At(50) {
		t.Fatalf("scene rests until %v, want 50 s", rest)
	}
	srng := rng.ForkNamed("script")
	for i := 0; i < 800; i++ {
		shots = append(shots, restShot{
			at:  sim.Time(0).Add(srng.DurationUniform(0, 190*sim.Second)),
			who: pkt.NodeID(srng.Intn(nodes)),
			dur: srng.DurationUniform(sim.Millisecond, 4*sim.Millisecond),
		})
	}
	shots = append(shots, restShot{rest - 1, 3, sim.Millisecond}, restShot{rest, 4, sim.Millisecond})
	return tracks, shots
}

type restShot struct {
	at  sim.Time
	who pkt.NodeID
	dur sim.Duration
}

// runRest replays shots over tracks; extra may schedule further events
// (membership flips) on the run's engine before it starts. A probe one
// nanosecond before the rest horizon — ahead of the shot scheduled there —
// notes the index rebuilds so far and how many senders have a kept leg list.
// It returns the events executed too.
func runRest(t *testing.T, params RadioParams, tracks []*mobility.Track, cfg Config, shots []restShot, extra func(*sim.Engine, *Channel)) (*Channel, []*countingReceiver, restProbe) {
	t.Helper()
	eng := sim.NewEngine()
	ch := NewChannelWithConfig(eng, params, cfg)
	rcvs := make([]*countingReceiver, len(tracks))
	for i := range rcvs {
		rcvs[i] = &countingReceiver{}
	}
	attachTracks(ch, tracks, rcvs)
	if extra != nil {
		extra(eng, ch)
	}
	var probe restProbe
	eng.Schedule(ch.tab.RestUntil()-1, func() {
		probe.reindexes = ch.Reindexes
		for _, m := range ch.memo {
			if m != nil {
				probe.kept++
			}
		}
	})
	for _, s := range shots {
		eng.Schedule(s.at, func() {
			if r := ch.Radio(s.who); !r.Transmitting() {
				r.Transmit(int(s.who), s.dur)
			}
		})
	}
	if err := eng.Run(sim.At(200)); err != nil {
		t.Fatal(err)
	}
	probe.executed = eng.Executed
	return ch, rcvs, probe
}

type restProbe struct {
	reindexes uint64 // just before the rest horizon
	kept      int    // senders with a kept leg list, same instant
	executed  uint64 // events of the whole run
}

// requireSameAir fails unless the two runs agree on every channel counter
// and on every radio's deliveries and busy edges.
func requireSameAir(t *testing.T, a, b *Channel, ra, rb []*countingReceiver) {
	t.Helper()
	if a.Transmissions != b.Transmissions || a.Deliveries != b.Deliveries ||
		a.Collisions != b.Collisions || a.Captures != b.Captures {
		t.Fatalf("counter mismatch: indexed tx=%d dlv=%d col=%d cap=%d, brute tx=%d dlv=%d col=%d cap=%d",
			a.Transmissions, a.Deliveries, a.Collisions, a.Captures,
			b.Transmissions, b.Deliveries, b.Collisions, b.Captures)
	}
	if a.Deliveries == 0 || a.Collisions == 0 {
		t.Fatalf("degenerate scene: %d deliveries, %d collisions", a.Deliveries, a.Collisions)
	}
	for i := range ra {
		if *ra[i] != *rb[i] {
			t.Fatalf("radio %d: indexed saw %+v, brute %+v", i, *ra[i], *rb[i])
		}
	}
}

// TestRestMemoBruteforceParity: while the position table proves the scene
// at rest the indexed path replays each sender's kept leg list; the
// brute-force loop — which never memoises — is the oracle. They must agree
// across the rest horizon, in both reception modes, and with receivers and
// senders powering down and up inside the rest window (the memo is built
// over every radio and masked at replay, so churn must not invalidate it).
func TestRestMemoBruteforceParity(t *testing.T) {
	tracks, shots := restScene(t)
	bound := mobility.MaxTrackSpeed(tracks)
	churn := func(eng *sim.Engine, ch *Channel) {
		flip := func(at float64, who pkt.NodeID, up bool) {
			eng.Schedule(sim.At(at), func() { ch.SetNodeUp(who, up) })
		}
		rng := sim.NewRNG(11)
		for who := pkt.NodeID(0); who < 40; who += 3 {
			// Down before, during and after the rest window; the early
			// ones are down when the first memos are built.
			flip(rng.Uniform(0, 25), who, false)
			flip(rng.Uniform(25, 50), who, true)
			flip(rng.Uniform(60, 100), who, false)
			flip(rng.Uniform(100, 150), who, true)
		}
	}
	for _, tc := range []struct {
		name  string
		sinr  bool
		extra func(*sim.Engine, *Channel)
	}{
		{"capture", false, nil},
		{"sinr", true, nil},
		{"churn", false, churn},
		{"churn-sinr", true, churn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, gridGot, atRest := runRest(t, DefaultParams(), tracks, Config{ReindexInterval: sim.Second, SpeedBound: bound, SINR: tc.sinr}, shots, tc.extra)
			brute, bruteGot, oracle := runRest(t, DefaultParams(), tracks, Config{BruteForce: true, SINR: tc.sinr}, shots, tc.extra)
			requireSameAir(t, grid, brute, gridGot, bruteGot)
			// A leg to a down radio is dropped at transmit, not scheduled
			// and ignored on arrival: the event count is observable.
			if atRest.executed != oracle.executed {
				t.Fatalf("indexed run executed %d events, brute %d", atRest.executed, oracle.executed)
			}
			if atRest.reindexes != 1 || atRest.kept < 30 {
				t.Fatalf("at rest: %d reindexes, %d senders' legs kept; want 1 and most of the 40", atRest.reindexes, atRest.kept)
			}
			if grid.memo != nil {
				t.Fatal("leg lists kept past the rest horizon")
			}
			if oracle.kept != 0 || brute.memo != nil {
				t.Fatal("the brute-force oracle memoised")
			}
		})
	}
}

// flicker is a link-dependent model: every other transmission of a link is
// 3 dB down. A kept leg list would freeze the draw.
type flicker struct{ TwoRayGround }

func (m flicker) LinkRxPower(txPower, d float64, from, to pkt.NodeID, txSeq uint64) float64 {
	p := m.RxPower(txPower, d)
	if (txSeq+uint64(from)+uint64(to))%2 == 0 {
		p /= 2
	}
	return p
}

func (flicker) MaxGainLinear() float64 { return 1 }

// TestLinkDependentPowerNeverMemoised: a model whose power is keyed by the
// transmission must be re-derived per transmit even in a scene at rest.
func TestLinkDependentPowerNeverMemoised(t *testing.T) {
	tracks, shots := restScene(t)
	params := DefaultParams()
	params.Prop = flicker{params.Prop.(TwoRayGround)}
	grid, gridGot, atRest := runRest(t, params, tracks, Config{ReindexInterval: sim.Second, SpeedBound: 20}, shots, nil)
	brute, bruteGot, _ := runRest(t, params, tracks, Config{BruteForce: true}, shots, nil)
	requireSameAir(t, grid, brute, gridGot, bruteGot)
	if atRest.kept != 0 {
		t.Fatalf("%d senders' legs kept under a link-dependent model", atRest.kept)
	}
}

// TestSortLegsStraddlesInsertionMax: to either side of the size at which
// sortLegs changes algorithm, legs found in NodeID order — a reversed run of
// triplicated delays, then a sorted run that repeats some — come out in
// (delay, NodeID) order.
func TestSortLegsStraddlesInsertionMax(t *testing.T) {
	for _, n := range []int{1, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 5 * insertionSortMax} {
		legs := make([]leg, n)
		for i := range legs {
			legs[i] = leg{to: pkt.NodeID(i), delay: sim.Duration(n-i) / 3}
			if i > 2*n/3 {
				legs[i].delay = sim.Duration(i) / 2
			}
		}
		want := slices.Clone(legs)
		sort.SliceStable(want, func(a, b int) bool { return want[a].delay < want[b].delay })
		sortLegs(legs)
		if !slices.Equal(legs, want) {
			t.Fatalf("%d legs: got %v, want %v", n, legs, want)
		}
	}
}
