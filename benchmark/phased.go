package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"adhocsim/internal/core"
	"adhocsim/internal/network"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
	"adhocsim/internal/traffic"
)

// phaseTimes splits one run's host time at the seams core.Run has.
type phaseTimes struct {
	Generate, Oracle, Build, Install, Start time.Duration
	Loop, Finalize                          time.Duration
}

func (p phaseTimes) setup() time.Duration {
	return p.Generate + p.Oracle + p.Build + p.Install + p.Start
}

func (p phaseTimes) total() time.Duration { return p.setup() + p.Loop + p.Finalize }

// layerCounts are the exact counters the layers keep themselves, read off
// the world after a run. A change that only alters speed leaves all of them
// identical.
type layerCounts struct {
	Events, LifecycleEvents                                   uint64
	Tx, Deliveries                                            uint64
	MacData, MacCtl, MacRetries, MacQueueDrops, MacRetryDrops uint64
	DataSent, DataDelivered, RoutingTx                        uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.Events += o.Events
	c.LifecycleEvents += o.LifecycleEvents
	c.Tx += o.Tx
	c.Deliveries += o.Deliveries
	c.MacData += o.MacData
	c.MacCtl += o.MacCtl
	c.MacRetries += o.MacRetries
	c.MacQueueDrops += o.MacQueueDrops
	c.MacRetryDrops += o.MacRetryDrops
	c.DataSent += o.DataSent
	c.DataDelivered += o.DataDelivered
	c.RoutingTx += o.RoutingTx
}

type runOut struct {
	Res     stats.Results
	Times   phaseTimes
	Counts  layerCounts
	Mallocs uint64
	Bytes   uint64
	// Pending holds Engine.Len() sampled once per simulated second (traced
	// runs only).
	Pending []int
}

// runPhased is the benchmark's copy of core.Run's wiring, with a timestamp
// at every seam and the scene generated from c.SceneSeed. Every warm-up
// compares its Results with adhocsim.Run, so the copy cannot drift from the
// facade unnoticed. A non-nil rec turns tracing on: set-up calls and
// World.Run become spans, every routing agent is decorated, and a ticker
// samples the pending-event depth (its own events are not counted). wrap,
// when non-nil, replaces traceFactory (the tests use it to break the
// decorator).
func runPhased(c simConfig, rec *recorder, wrap func(network.ProtocolFactory, *recorder) network.ProtocolFactory) (runOut, error) {
	rc := c.RC
	var out runOut
	var t phaseTimes
	var err error
	step := func(k spanKind, d *time.Duration, fn func()) {
		if rec != nil {
			rec.begin(k)
		}
		start := time.Now()
		fn()
		*d = time.Since(start)
		if rec != nil {
			rec.end()
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var inst *scenario.Instance
	step(spanGenerate, &t.Generate, func() { inst, err = rc.Spec.Generate(c.SceneSeed) })
	if err != nil {
		return out, err
	}
	factory, err := core.FactoryFor(rc.Protocol, inst.Radio, rc.Tweaks)
	if err != nil {
		return out, err
	}
	if rec != nil {
		if wrap == nil {
			wrap = traceFactory
		}
		factory = wrap(factory, rec)
	}
	var oracle *topo.Oracle
	step(spanOracle, &t.Oracle, func() { oracle = topo.NewOracle(inst.Tracks, inst.Radio.RxRange()) })
	phyCfg := rc.Phy
	if rc.Spec.Radio.SINR {
		phyCfg.SINR = true
	}
	var world *network.World
	step(spanBuild, &t.Build, func() {
		world, err = network.NewWorld(network.Config{
			Tracks:    inst.Tracks,
			Radio:     inst.Radio,
			Phy:       phyCfg,
			Mac:       rc.Mac,
			Protocol:  factory,
			Seed:      rc.Seed ^ 0x5eed,
			Oracle:    oracle,
			Sinks:     rc.Sinks,
			Lifecycle: inst.Lifecycle,
		})
	})
	if err != nil {
		return out, err
	}
	horizon := sim.Time(0).Add(rc.Spec.Duration)
	step(spanInstall, &t.Install, func() { _, err = traffic.Install(world, inst.Connections, horizon) })
	if err != nil {
		return out, err
	}
	limit := uint64(rc.Spec.Duration.Seconds()*2e6) * uint64(rc.Spec.Nodes) / 40
	if limit < 10_000_000 {
		limit = 10_000_000
	}
	world.Eng.Limit = limit
	step(spanWorldStart, &t.Start, world.Start)
	if rec != nil {
		sim.NewTicker(world.Eng, sim.Second, func() {
			out.Pending = append(out.Pending, world.Eng.Len())
		}).Start()
	}
	step(spanWorldRun, &t.Loop, func() { err = world.Run(context.Background(), horizon) })
	if err != nil {
		return out, fmt.Errorf("%s seed %d: %w", rc.Protocol, rc.Seed, err)
	}
	step(spanFinalize, &t.Finalize, func() { out.Res = world.Collector.Finalize() })

	runtime.ReadMemStats(&after)
	out.Times = t
	out.Mallocs = after.Mallocs - before.Mallocs
	out.Bytes = after.TotalAlloc - before.TotalAlloc
	out.Counts = layerCounts{
		Events:          world.Eng.Executed - uint64(len(out.Pending)),
		LifecycleEvents: uint64(len(inst.Lifecycle)),
		Tx:              world.Channel.Transmissions,
		Deliveries:      world.Channel.Deliveries,
		DataSent:        out.Res.DataSent,
		DataDelivered:   out.Res.DataDelivered,
		RoutingTx:       out.Res.RoutingTxPackets,
	}
	for _, n := range world.Nodes {
		s := n.Mac.Stats
		out.Counts.MacData += s.DataSent
		out.Counts.MacCtl += s.RTSSent + s.CTSSent + s.AckSent
		out.Counts.MacRetries += s.Retries
		out.Counts.MacQueueDrops += s.QueueDrops
		out.Counts.MacRetryDrops += s.RetryDrops
	}
	return out, nil
}
