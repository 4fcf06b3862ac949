package radio

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// TestRestingSceneGridBruteforceParity: in a scene that never moves the
// channel indexes once and keeps each sender's leg list for the distance-only
// models. A link-dependent model's power is a fresh draw per transmission
// (fading) or per link identity (shadowing) that the channel cannot see into,
// so it must be re-derived on every transmit: a kept list would freeze the
// draws and part ways with the brute-force loop, which never keeps one.
func TestRestingSceneGridBruteforceParity(t *testing.T) {
	tracks, err := mobility.StaticGrid{Area: geo.Rect{W: 600, H: 600}}.Generate(16, 0, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"tworay", "shadowing", "rayleigh"} {
		params, err := New(model, Env{Seed: 77}, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg phy.Config) (*phy.Channel, []*countingReceiver) {
			eng := sim.NewEngine()
			ch := phy.NewChannelWithConfig(eng, params, cfg)
			ch.SetPositionTable(mobility.NewTable(tracks))
			rcvs := make([]*countingReceiver, len(tracks))
			for i := range tracks {
				rcvs[i] = &countingReceiver{}
				ch.AttachRadio(pkt.NodeID(i), nil, rcvs[i])
			}
			for i := 0; i < 64; i++ {
				eng.Schedule(sim.At(float64(i)), func() { ch.Radio(pkt.NodeID(i%4)).Transmit(i, sim.Millisecond) })
			}
			if err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			return ch, rcvs
		}
		grid, gridGot := run(phy.Config{})
		brute, bruteGot := run(phy.Config{BruteForce: true})
		if grid.Deliveries == 0 || grid.Reindexes != 1 {
			t.Fatalf("%s: %d deliveries, %d reindexes in a static scene", model, grid.Deliveries, grid.Reindexes)
		}
		if grid.Deliveries != brute.Deliveries {
			t.Fatalf("%s: indexed delivered %d, brute %d", model, grid.Deliveries, brute.Deliveries)
		}
		for i := range gridGot {
			if gridGot[i].got != bruteGot[i].got {
				t.Fatalf("%s: radio %d: indexed received %d, brute %d", model, i, gridGot[i].got, bruteGot[i].got)
			}
		}
	}
}
