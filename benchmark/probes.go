package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/dist"
	"adhocsim/internal/geo"
	"adhocsim/internal/mac"
	"adhocsim/internal/metrics"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
)

// probeIn is what the probes cut from a workload: its tracks, radio and
// channel configuration, the pending-event depth its traced pass measured,
// one unit's Results with stream digests, and the campaign spec.
type probeIn struct {
	tracks   []*mobility.Track
	radio    phy.RadioParams
	phy      phy.Config
	duration sim.Duration
	pending  int
	res      stats.Results
	spec     campaign.Spec
	outDir   string
	tiny     bool
}

func probeInputs(c simConfig, pending int, sample simTrace, spec campaign.Spec, opt options) probeIn {
	in := probeIn{phy: c.RC.Phy, duration: c.RC.Spec.Duration, pending: pending, spec: spec, outDir: opt.OutDir, tiny: opt.Tiny}
	if inst, err := c.RC.Spec.Generate(c.SceneSeed); err == nil {
		in.tracks, in.radio = inst.Tracks, inst.Radio
	}
	// Prefer a unit that delivered data, so that its sketches are not empty.
	for _, o := range sample.traced {
		if in.res.Streams == nil || (in.res.DataDelivered == 0 && o.Res.DataDelivered > 0) {
			in.res = o.Res
		}
	}
	return in
}

// nsPerOp times fn(n) at growing n until one call lasts 20 ms, then reports
// the median ns per operation of five calls at that n.
func (in probeIn) nsPerOp(fn func(n int)) float64 {
	n, rounds, floor := 1, 5, 20*time.Millisecond
	if in.tiny {
		rounds, floor = 1, 0
	}
	for {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d >= floor || n >= 1<<24 {
			break
		}
		n *= 4
	}
	samples := make([]float64, rounds)
	for i := range samples {
		start := time.Now()
		fn(n)
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// horizonAt returns t, or half the horizon where the scene is shorter.
func horizonAt(d sim.Duration, t sim.Duration) sim.Time {
	if t > d/2 {
		t = d / 2
	}
	return sim.Time(0).Add(t)
}

type nopReceiver struct{}

func (nopReceiver) OnReceive(any, pkt.NodeID, float64) {}
func (nopReceiver) OnChannelBusy()                     {}
func (nopReceiver) OnChannelIdle()                     {}

type nopUpper struct{}

func (nopUpper) MacRecv(*pkt.Packet, pkt.NodeID, float64)              {}
func (nopUpper) MacSnoop(*pkt.Packet, pkt.NodeID, pkt.NodeID, float64) {}
func (nopUpper) MacSent(*pkt.Packet, pkt.NodeID)                       {}
func (nopUpper) MacSendFailed(*pkt.Packet, pkt.NodeID)                 {}
func (nopUpper) MacQueueFull(*pkt.Packet, pkt.NodeID)                  {}

// probes replays each layer in isolation on the workload's inputs. A
// probe's cost times the workload's count of that operation estimates the
// layer's share of a run.
func (r *result) probes(in probeIn) {
	if len(in.tracks) == 0 || in.res.Streams == nil {
		r.fail(1, "probes: no scene or no sample unit to cut inputs from")
		return
	}
	r.Ops++
	t0, t30 := sim.Time(0), horizonAt(in.duration, 30*sim.Second)
	n := len(in.tracks)

	r.set("topo.snapshot_bfs_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			topo.Snapshot(in.tracks, t30, in.radio.RxRange()).BFS(0)
		}
	})/1e3)

	for _, q := range probedQueues {
		r.set(q.Metric, in.holdModel(q.Kind))
	}
	r.set("sim.timer_reset_ns", in.timerReset())

	tab := mobility.NewTable(in.tracks)
	step := sim.Time(0)
	r.set("mobility.at_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if i%n == 0 {
				step = (step + sim.Time(sim.Millisecond)) % sim.Time(in.duration)
			}
			tab.At(i%n, step)
		}
	}))
	pts0, pts30 := make([]geo.Point, n), make([]geo.Point, n)
	r.set("mobility.positions_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			step = (step + sim.Time(sim.Millisecond)) % sim.Time(in.duration)
			tab.Positions(step, pts0)
		}
	})/1e3)

	tab.Positions(t0, pts0)
	tab.Positions(t30, pts30)
	radius := in.radio.CSRange() + 1
	grid := geo.NewFlatGrid(radius)
	r.set("geo.rebuild_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				grid.Rebuild(pts0)
			} else {
				grid.Rebuild(pts30)
			}
		}
	})/1e3)
	grid.Rebuild(pts30)
	var scratch []int32
	var found, queries int
	r.set("geo.query_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			scratch = grid.WithinSorted(pts30[i%n], radius, int32(i%n), scratch[:0])
		}
	}))
	for i := 0; i < n; i++ {
		found += len(grid.WithinSorted(pts30[i], radius, int32(i), scratch[:0]))
		queries++
	}
	r.set("geo.candidates_per_query", float64(found)/float64(queries))
	up := make([]bool, n)
	for i := range up {
		up[i] = i%4 != 0
	}
	r.set("geo.query_live_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			scratch = grid.WithinSortedLive(pts30[i%n], radius, int32(i%n), up, scratch[:0])
		}
	}))

	r.set("phy.transmit_ns", in.transmit())
	for _, m := range []struct {
		name string
		to   pkt.NodeID
	}{{"mac.unicast_us", 1}, {"mac.broadcast_us", pkt.Broadcast}} {
		ns, stats := in.macExchange(m.to)
		if stats.RetryDrops+stats.QueueDrops > 0 || stats.DataSent == 0 {
			r.fail(1, "%s probe: packets did not get through: %+v", m.name, stats)
		}
		r.set(m.name, ns/1e3)
	}

	sk := metrics.NewSketch(metrics.DefaultCompression)
	rng := rand.New(rand.NewSource(1))
	r.set("metrics.sketch_add_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sk.Add(rng.ExpFloat64())
		}
	}))
	state := sk.State()
	r.set("metrics.sketch_merge_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sk.MergeState(state)
		}
	})/1e3)
	r.set("metrics.sketch_state_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			state = sk.State()
		}
	})/1e3)
	win := metrics.NewWindow(in.duration, metrics.DefaultSeriesBuckets)
	r.set("metrics.window_record_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			at := sim.Time(int64(i) * int64(sim.Millisecond) % int64(in.duration))
			win.Record(metrics.Sample{Kind: metrics.Delay, At: at, Value: 0.01})
		}
	}))

	var encoded []byte
	r.set("stats.results_json_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			encoded, _ = json.Marshal(in.res)
		}
	})/1e3)
	r.set("stats.results_json_bytes", float64(len(encoded)))

	r.campaignProbes(in)
	r.storeProbes(in)
}

// holdModel prices one event on a queue kept at the workload's pending
// depth: every dispatched event schedules its successor an exponential
// delay ahead (the classic hold model).
func (in probeIn) holdModel(kind sim.QueueKind) float64 {
	eng := sim.NewEngineQueue(kind)
	rng := rand.New(rand.NewSource(1))
	left := 0
	var fn sim.EventFunc
	fn = func() {
		if left--; left <= 0 {
			eng.Stop()
		}
		eng.ScheduleIn(sim.Duration(rng.ExpFloat64()*float64(sim.Millisecond)), fn)
	}
	for i := 0; i < in.pending; i++ {
		eng.ScheduleIn(sim.Duration(rng.ExpFloat64()*float64(sim.Millisecond)), fn)
	}
	return in.nsPerOp(func(k int) {
		left = k
		_ = eng.RunAll() // no limit and no interrupt set: cannot fail
	})
}

// timerReset prices Timer.Reset (cancel plus schedule) at that depth.
func (in probeIn) timerReset() float64 {
	eng := sim.NewEngine()
	for i := 0; i < in.pending; i++ {
		eng.ScheduleIn(sim.Duration(i+1)*sim.Millisecond, func() {})
	}
	t := sim.NewTimer(eng, func() {})
	return in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			t.Reset(sim.Duration(i%in.pending+1) * sim.Millisecond)
		}
	})
}

// transmit prices Radio.Transmit plus draining its arrivals on a channel
// that holds the workload's whole population, with receivers that do
// nothing. The channel is configured the way network.NewWorld would.
func (in probeIn) transmit() float64 {
	eng := sim.NewEngine()
	cfg := in.phy
	if cfg.ReindexInterval <= 0 {
		cfg.ReindexInterval = sim.Second
	}
	cfg.SpeedBound = mobility.MaxTrackSpeed(in.tracks)
	cfg.Static = cfg.SpeedBound == 0
	ch := phy.NewChannelWithConfig(eng, in.radio, cfg)
	ch.SetPositionTable(mobility.NewTable(in.tracks))
	for i := range in.tracks {
		ch.AttachRadio(pkt.NodeID(i), nil, nopReceiver{})
	}
	sender := 0
	return in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			ch.Radio(pkt.NodeID(sender)).Transmit(nil, sim.Millisecond)
			_ = eng.RunAll()
			sender = (sender + 1) % len(in.tracks)
		}
	})
}

// macExchange prices one packet through two MACs 100 m apart: RTS, CTS,
// DATA and ACK for unicast, a single frame for broadcast.
func (in probeIn) macExchange(to pkt.NodeID) (float64, mac.Stats) {
	eng := sim.NewEngine()
	ch := phy.NewChannel(eng, phy.DefaultParams())
	ch.SetPositionTable(mobility.NewTable([]*mobility.Track{
		mobility.Static(geo.Pt(0, 0)), mobility.Static(geo.Pt(100, 0)),
	}))
	rng := sim.NewRNG(1)
	var macs [2]*mac.Mac
	for i := range macs {
		radio := ch.AttachRadio(pkt.NodeID(i), nil, nil)
		macs[i] = mac.New(eng, pkt.NodeID(i), radio, nopUpper{}, rng.Fork(int64(i)), mac.Config{})
		radio.SetReceiver(macs[i])
	}
	p := &pkt.Packet{Kind: pkt.KindData, Src: 0, Dst: 1, Size: 64 + 20}
	ns := in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			macs[0].Send(p, to)
			_ = eng.RunAll()
		}
	})
	return ns, macs[0].Stats
}

// campaignProbes prices the campaign engine on the workload's spec: plan
// expansion, one unit, and dispatch plus commit with the journal on.
func (r *result) campaignProbes(in probeIn) {
	r.set("campaign.expand_ms", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if _, err := in.spec.Expand(); err != nil {
				panic(err) // the spec ran a whole campaign a moment ago
			}
		}
	})/1e6)
	plan, err := in.spec.Expand()
	if err != nil {
		r.fail(1, "expanding spec: %v", err)
		return
	}
	unitMs := make([]float64, len(plan.Cells))
	for ci := range plan.Cells {
		start := time.Now()
		if _, err := plan.ExecuteUnit(context.Background(), ci, 0); err != nil {
			r.fail(1, "unit %d: %v", ci, err)
			return
		}
		unitMs[ci] = time.Since(start).Seconds() * 1e3
	}
	r.set("campaign.execute_unit_ms", unitMs...)

	dir, err := os.MkdirTemp(in.outDir, "probe-")
	if err != nil {
		r.fail(1, "probe dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	c, err := campaign.New(in.spec, campaign.Options{JournalPath: filepath.Join(dir, "journal.jsonl")})
	if err == nil {
		err = c.Start()
	}
	if err != nil {
		r.fail(1, "commit probe: %v", err)
		return
	}
	var commitUs []float64
	for {
		start := time.Now()
		ci, rep, ok := c.NextUnit()
		if !ok {
			break
		}
		c.CompleteUnit(ci, rep, in.res, false)
		commitUs = append(commitUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if _, err := c.Finish(context.Background()); err != nil {
		r.fail(1, "commit probe: %v", err)
	}
	r.set("campaign.commit_us", commitUs...)
}

// storeProbes prices the durable result store adhocd serves from (the
// workload's in-memory store is a map lookup) and the progress hub with one
// subscriber, which is what the workload attaches.
func (r *result) storeProbes(in probeIn) {
	dir, err := os.MkdirTemp(in.outDir, "probe-")
	if err != nil {
		r.fail(1, "probe dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := dist.NewFSStore(dir)
	if err != nil {
		r.fail(1, "store probe: %v", err)
		return
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i%256) }
	r.set("dist.cache_put_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if err := store.Put(key(i), in.res); err != nil {
				panic(err) // a directory the benchmark just made
			}
		}
	})/1e3)
	r.set("dist.cache_get_us", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if _, found, err := store.Get(key(0)); err != nil || !found {
				panic(fmt.Sprint("store probe: lost key: ", err))
			}
		}
	})/1e3)

	hub := dist.NewHub()
	sub := hub.Subscribe("probe", 64)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-sub.C():
			case <-stop:
				return
			}
		}
	}()
	ev := dist.Event{Type: dist.EventRunCommitted, Campaign: "probe"}
	r.set("dist.hub_publish_ns", in.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			hub.Publish("probe", ev)
		}
	}))
	sub.Cancel()
	close(stop)
	<-stopped
}
