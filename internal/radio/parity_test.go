package radio

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

type countingReceiver struct{ got int }

func (c *countingReceiver) OnReceive(any, pkt.NodeID, float64) { c.got++ }
func (c *countingReceiver) OnChannelBusy()                     {}
func (c *countingReceiver) OnChannelIdle()                     {}

// TestStochasticGridBruteforceParity is the padding-bound acceptance test:
// with shadowing or fading a lucky link can clear the carrier-sense
// threshold from beyond the nominal CS range, so the spatial index widens
// its query by the model's declared MaxGainLinear. Replaying identical
// random transmission scripts with the index on and off — in both
// reception modes — must produce identical accounting; a missed candidate
// would show up as a delivery/collision mismatch. (Content-derived draws
// are what make this testable at all: the two paths probe different
// candidate sets but agree on every probed leg.)
func TestStochasticGridBruteforceParity(t *testing.T) {
	for _, tc := range []struct {
		model  string
		params map[string]float64
		sinr   bool
	}{
		{"shadowing", map[string]float64{"sigma_db": 8, "max_dev_db": 16}, false},
		{"shadowing", map[string]float64{"sigma_db": 8, "max_dev_db": 16}, true},
		{"ricean", map[string]float64{"max_gain_db": 10}, false},
		{"rayleigh", nil, true},
	} {
		name := tc.model
		if tc.sinr {
			name += "-sinr"
		}
		t.Run(name, func(t *testing.T) {
			const nodes = 45
			params, err := New(tc.model, Env{Seed: 77}, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(19)
			model := mobility.RandomWaypoint{Area: geo.Rect{W: 2500, H: 2500}, MinSpeed: 1, MaxSpeed: 20}
			tracks, err := model.Generate(nodes, 120*sim.Second, rng.ForkNamed("mobility"))
			if err != nil {
				t.Fatal(err)
			}
			type shot struct {
				at  sim.Time
				who pkt.NodeID
				dur sim.Duration
			}
			script := make([]shot, 300)
			srng := rng.ForkNamed("script")
			for i := range script {
				script[i] = shot{
					at:  sim.Time(0).Add(srng.DurationUniform(0, 110*sim.Second)),
					who: pkt.NodeID(srng.Intn(nodes)),
					dur: srng.DurationUniform(sim.Millisecond, 4*sim.Millisecond),
				}
			}
			run := func(cfg phy.Config) (*phy.Channel, []int) {
				eng := sim.NewEngine()
				ch := phy.NewChannelWithConfig(eng, params, cfg)
				ch.SetPositionTable(mobility.NewTable(tracks))
				rcvs := make([]*countingReceiver, nodes)
				for i := range tracks {
					rcvs[i] = &countingReceiver{}
					ch.AttachRadio(pkt.NodeID(i), nil, rcvs[i])
				}
				for _, s := range script {
					s := s
					eng.Schedule(s.at, func() {
						r := ch.Radio(s.who)
						if !r.Transmitting() {
							r.Transmit(int(s.who), s.dur)
						}
					})
				}
				if err := eng.Run(sim.At(120)); err != nil {
					t.Fatal(err)
				}
				got := make([]int, nodes)
				for i, r := range rcvs {
					got[i] = r.got
				}
				return ch, got
			}
			bound := mobility.MaxTrackSpeed(tracks)
			grid, gridGot := run(phy.Config{ReindexInterval: sim.Second, SpeedBound: bound, SINR: tc.sinr})
			brute, bruteGot := run(phy.Config{BruteForce: true, SINR: tc.sinr})
			if grid.Transmissions != brute.Transmissions ||
				grid.Deliveries != brute.Deliveries ||
				grid.Collisions != brute.Collisions ||
				grid.Captures != brute.Captures {
				t.Fatalf("counter mismatch: grid tx=%d dlv=%d col=%d cap=%d, brute tx=%d dlv=%d col=%d cap=%d",
					grid.Transmissions, grid.Deliveries, grid.Collisions, grid.Captures,
					brute.Transmissions, brute.Deliveries, brute.Collisions, brute.Captures)
			}
			if grid.Deliveries == 0 {
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
