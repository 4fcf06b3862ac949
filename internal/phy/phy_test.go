package phy

import (
	"math"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

func TestTwoRayCrossoverContinuity(t *testing.T) {
	p := DefaultParams()
	prop := p.Prop.(TwoRayGround)
	x := prop.Crossover()
	below := prop.RxPower(p.TxPower, x*0.999)
	above := prop.RxPower(p.TxPower, x*1.001)
	if math.Abs(below-above)/below > 0.02 {
		t.Fatalf("discontinuity at crossover: %g vs %g", below, above)
	}
}

func TestPowerMonotoneDecreasing(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for d := 1.0; d < 2000; d += 7 {
		pw := p.Prop.RxPower(p.TxPower, d)
		if pw > prev {
			t.Fatalf("power increased with distance at %.0f m", d)
		}
		prev = pw
	}
}

func TestDefaultRanges(t *testing.T) {
	p := DefaultParams()
	if r := p.RxRange(); math.Abs(r-250) > 1 {
		t.Fatalf("rx range = %.2f, want 250", r)
	}
	if r := p.CSRange(); math.Abs(r-550) > 1 {
		t.Fatalf("cs range = %.2f, want 550", r)
	}
}

func TestParamsForRange(t *testing.T) {
	p := ParamsForRange(100, 220)
	if r := p.RxRange(); math.Abs(r-100) > 1 {
		t.Fatalf("rx range = %.2f, want 100", r)
	}
	if r := p.CSRange(); math.Abs(r-220) > 1 {
		t.Fatalf("cs range = %.2f, want 220", r)
	}
}

// gainProp is a link model declaring the gain bound g.
type gainProp struct {
	TwoRayGround
	g float64
}

func (m gainProp) LinkRxPower(txPower, d float64, _, _ pkt.NodeID, _ uint64) float64 {
	return m.RxPower(txPower, d)
}

func (m gainProp) MaxGainLinear() float64 { return m.g }

// TestValidateRejectsNaN: every bound Validate checks fails on NaN, which a
// plain x <= 0 comparison lets through, and the gain bound on +Inf.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for what, mut := range map[string]func(*RadioParams){
		"tx power":      func(p *RadioParams) { p.TxPower = nan },
		"rx threshold":  func(p *RadioParams) { p.RxThreshold = nan },
		"cs threshold":  func(p *RadioParams) { p.CSThreshold = nan },
		"capture ratio": func(p *RadioParams) { p.CaptureRatio = nan },
		"noise floor":   func(p *RadioParams) { p.NoiseW = nan },
		"gain bound":    func(p *RadioParams) { p.Prop = gainProp{p.Prop.(TwoRayGround), nan} },
		"infinite gain": func(p *RadioParams) { p.Prop = gainProp{p.Prop.(TwoRayGround), math.Inf(1)} },
	} {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	p := DefaultParams()
	p.Prop = gainProp{p.Prop.(TwoRayGround), 2}
	if err := p.Validate(); err != nil {
		t.Errorf("finite gain bound 2 rejected: %v", err)
	}
}

func TestFreeSpaceInverseSquare(t *testing.T) {
	fs := FreeSpace{Gt: 1, Gr: 1, Lambda: 0.3, L: 1}
	r1 := fs.RxPower(1, 100)
	r2 := fs.RxPower(1, 200)
	if math.Abs(r1/r2-4) > 1e-9 {
		t.Fatalf("free space is not 1/d²: ratio %g", r1/r2)
	}
}

func TestTwoRayInverseFourth(t *testing.T) {
	tr := TwoRayGround{Gt: 1, Gr: 1, Ht: 1.5, Hr: 1.5, Lambda: 0.328, L: 1}
	d := tr.Crossover() * 2
	r1 := tr.RxPower(1, d)
	r2 := tr.RxPower(1, 2*d)
	if math.Abs(r1/r2-16) > 1e-9 {
		t.Fatalf("two-ray is not 1/d⁴ beyond crossover: ratio %g", r1/r2)
	}
}

// collector is a test Receiver recording deliveries and channel edges.
type collector struct {
	got   []string
	from  []pkt.NodeID
	busy  int
	idle  int
	power []float64
}

func (c *collector) OnReceive(payload any, from pkt.NodeID, rxPower float64) {
	c.got = append(c.got, payload.(string))
	c.from = append(c.from, from)
	c.power = append(c.power, rxPower)
}
func (c *collector) OnChannelBusy() { c.busy++ }
func (c *collector) OnChannelIdle() { c.idle++ }

// attachTracks installs a position table over tracks and attaches radio i
// on it, delivering to rcvs[i] — the one way a test builds its radios.
func attachTracks[R Receiver](ch *Channel, tracks []*mobility.Track, rcvs []R) {
	ch.SetPositionTable(mobility.NewTable(tracks))
	for i, rcv := range rcvs {
		ch.AttachRadio(pkt.NodeID(i), nil, rcv)
	}
}

// newCollectors returns n empty collectors.
func newCollectors(n int) []*collector {
	cols := make([]*collector, n)
	for i := range cols {
		cols[i] = &collector{}
	}
	return cols
}

// buildChain wires n static radios spaced apart on a line.
func buildChain(eng *sim.Engine, n int, spacing float64) (*Channel, []*collector) {
	ch := NewChannel(eng, DefaultParams())
	cols := newCollectors(n)
	attachTracks(ch, mobility.Chain(n, spacing), cols)
	return ch, cols
}

func TestDeliveryWithinRange(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 3, 200) // 0-1: 200m (in range), 0-2: 400m (out of rx range, in CS)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("hello", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[1].got) != 1 || cols[1].got[0] != "hello" {
		t.Fatalf("node 1 got %v", cols[1].got)
	}
	if cols[1].from[0] != 0 {
		t.Fatal("wrong sender")
	}
	if len(cols[2].got) != 0 {
		t.Fatal("node 2 beyond rx range received frame")
	}
	// Node 2 is within carrier-sense range: it must have seen busy/idle.
	if cols[2].busy != 1 || cols[2].idle != 1 {
		t.Fatalf("node 2 busy/idle = %d/%d, want 1/1", cols[2].busy, cols[2].idle)
	}
	if ch.Deliveries != 1 {
		t.Fatalf("channel deliveries = %d", ch.Deliveries)
	}
}

func TestBeyondCSRangeSilence(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 2, 600)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("x", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[1].got) != 0 || cols[1].busy != 0 {
		t.Fatal("node beyond CS range observed the transmission")
	}
}

func TestCollisionComparablePowers(t *testing.T) {
	eng := sim.NewEngine()
	// Receiver in the middle of two equidistant senders: equal power,
	// overlapping in time → collision, nothing delivered.
	ch, cols := buildChain(eng, 3, 200)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("a", sim.Millisecond) })
	eng.ScheduleIn(100*sim.Microsecond, func() { ch.Radio(2).Transmit("b", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[1].got) != 0 {
		t.Fatalf("middle node decoded %v despite collision", cols[1].got)
	}
	if ch.Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestCaptureStrongerFirst(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, DefaultParams())
	// Receiver at origin; strong sender 50 m away, weak sender 240 m away.
	// Power ratio (240/50)⁴ ≫ 10, so the strong frame must survive.
	tracks := []*mobility.Track{mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(50, 0)), mobility.Static(geo.Pt(240, 0))}
	cols := newCollectors(3)
	attachTracks(ch, tracks, cols)
	eng.ScheduleIn(0, func() { ch.Radio(1).Transmit("strong", sim.Millisecond) })
	eng.ScheduleIn(50*sim.Microsecond, func() { ch.Radio(2).Transmit("weak", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[0].got) != 1 || cols[0].got[0] != "strong" {
		t.Fatalf("receiver got %v, want capture of strong frame", cols[0].got)
	}
	if ch.Captures == 0 {
		t.Fatal("capture not counted")
	}
}

func TestCaptureStrongerSecond(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, DefaultParams())
	tracks := []*mobility.Track{mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(50, 0)), mobility.Static(geo.Pt(240, 0))}
	cols := newCollectors(3)
	attachTracks(ch, tracks, cols)
	// Weak frame first, strong frame second: the strong one captures.
	eng.ScheduleIn(0, func() { ch.Radio(2).Transmit("weak", sim.Millisecond) })
	eng.ScheduleIn(50*sim.Microsecond, func() { ch.Radio(1).Transmit("strong", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[0].got) != 1 || cols[0].got[0] != "strong" {
		t.Fatalf("receiver got %v, want strong frame via capture", cols[0].got)
	}
}

func TestHalfDuplexTxKillsRx(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 2, 100)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("incoming", sim.Millisecond) })
	// Node 1 starts its own transmission mid-reception.
	eng.ScheduleIn(200*sim.Microsecond, func() { ch.Radio(1).Transmit("own", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[1].got) != 0 {
		t.Fatal("node decoded a frame while transmitting over it")
	}
	// Node 0 cannot decode node 1's frame either: it arrives at ~200 µs
	// while node 0 is still transmitting its own 1 ms frame.
	if len(cols[0].got) != 0 {
		t.Fatal("transmitter decoded a frame that arrived mid-transmission")
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 2, 100)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("one", sim.Millisecond) })
	eng.ScheduleIn(2*sim.Millisecond, func() { ch.Radio(0).Transmit("two", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(cols[1].got) != 2 || cols[1].got[0] != "one" || cols[1].got[1] != "two" {
		t.Fatalf("got %v", cols[1].got)
	}
	if cols[1].busy != 2 || cols[1].idle != 2 {
		t.Fatalf("busy/idle = %d/%d, want 2/2", cols[1].busy, cols[1].idle)
	}
}

func TestBusyIdleEdgesWithOverlap(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 3, 200)
	// Two overlapping transmissions as heard by the middle node: busy must
	// be signalled once and idle once, at the end of the later frame.
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("a", 2*sim.Millisecond) })
	eng.ScheduleIn(sim.Millisecond, func() { ch.Radio(2).Transmit("b", 4*sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if cols[1].busy != 1 || cols[1].idle != 1 {
		t.Fatalf("middle busy/idle = %d/%d, want 1/1", cols[1].busy, cols[1].idle)
	}
}

func TestRxPowerReported(t *testing.T) {
	eng := sim.NewEngine()
	ch, cols := buildChain(eng, 2, 150)
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("x", sim.Millisecond) })
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	want := DefaultParams().Prop.RxPower(DefaultParams().TxPower, 150)
	if len(cols[1].power) != 1 || math.Abs(cols[1].power[0]-want)/want > 1e-9 {
		t.Fatalf("reported power %v, want %g", cols[1].power, want)
	}
}

func TestMovingNodeLeavesRange(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, DefaultParams())
	c0, c1 := &collector{}, &collector{}
	// Node 1 moves away at 100 m/s from 200 m to 800 m over 6 s.
	track := mobility.MustTrack([]mobility.Segment{{Start: 0, From: geo.Pt(200, 0), To: geo.Pt(800, 0), Speed: 100}})
	attachTracks(ch, []*mobility.Track{mobility.Static(geo.Pt(0, 0)), track}, []*collector{c0, c1})
	eng.ScheduleIn(0, func() { ch.Radio(0).Transmit("near", sim.Millisecond) })
	eng.Schedule(sim.At(5.8), func() { ch.Radio(0).Transmit("far", sim.Millisecond) }) // node 1 at ~780 m
	if err := eng.Run(sim.At(10)); err != nil {
		t.Fatal(err)
	}
	if len(c1.got) != 1 || c1.got[0] != "near" {
		t.Fatalf("moving node got %v, want only the near frame", c1.got)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	eng := sim.NewEngine()
	ch, _ := buildChain(eng, 2, 100)
	eng.ScheduleIn(0, func() {
		ch.Radio(0).Transmit("a", sim.Millisecond)
		defer func() {
			if recover() == nil {
				t.Error("second Transmit did not panic")
			}
		}()
		ch.Radio(0).Transmit("b", sim.Millisecond)
	})
	if err := eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
}
