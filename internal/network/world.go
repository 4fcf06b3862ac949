package network

import (
	"context"
	"fmt"

	"adhocsim/internal/lifecycle"
	"adhocsim/internal/mac"
	"adhocsim/internal/metrics"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
	"adhocsim/internal/trace"
)

// ProtocolFactory builds a routing agent for node id. Factories are invoked
// once per node during World construction.
type ProtocolFactory func(id pkt.NodeID) Protocol

// Config assembles a World.
type Config struct {
	Tracks []*mobility.Track
	Radio  phy.RadioParams
	// Phy tunes the channel's transmit fast path. NewWorld fills the
	// defaults the zero value leaves open: a 1 s reindex interval and a
	// speed bound derived from the fastest track segment, so the spatial
	// index can never miss a receiver between reindexes.
	Phy      phy.Config
	Mac      mac.Config
	Protocol ProtocolFactory
	// Seed drives every stochastic element below the scenario layer
	// (MAC backoff, protocol jitter).
	Seed int64
	// Oracle is optional; when set, originated packets are annotated
	// with optimal hop counts for path-optimality accounting.
	Oracle *topo.Oracle
	// Tracer is optional; when set, every network-layer packet event is
	// reported to it (ns-2-style tracing).
	Tracer trace.Tracer
	// Sinks is optional; when set, the collector also emits every
	// data/routing event as a typed metrics.Sample to each sink, stamped
	// with the engine clock. Sinks run on the event loop: keep Record cheap.
	Sinks []metrics.Sink
	// Lifecycle is the run's membership schedule (scenario
	// Instance.Lifecycle) in canonical order: Join/Leave/Fail/Recover
	// events applied at their virtual times. Nil keeps the whole
	// population up for the whole run — bit-identical to the
	// fixed-population harness.
	Lifecycle []lifecycle.Event
}

// World is one fully-wired simulation instance. It is single-threaded;
// do not share across goroutines.
type World struct {
	Eng       *sim.Engine
	Channel   *phy.Channel
	Nodes     []*Node
	Collector *stats.Collector
	Oracle    *topo.Oracle
	Tracer    trace.Tracer
	lifecycle []lifecycle.Event
}

// NewWorld wires radios, MACs and routing agents for every track.
func NewWorld(cfg Config) (*World, error) {
	if len(cfg.Tracks) == 0 {
		return nil, fmt.Errorf("network: no tracks")
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("network: nil protocol factory")
	}
	// Spec- and campaign-level validation runs earlier (scenario.Validate
	// resolves the radio model eagerly); this guards direct callers that
	// assemble RadioParams by hand, where the channel constructor used to
	// panic on a capture ratio ≤ 1.
	if err := cfg.Radio.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	phyCfg := cfg.Phy
	if !phyCfg.BruteForce {
		if phyCfg.ReindexInterval <= 0 {
			phyCfg.ReindexInterval = sim.Second
		}
		// The speed bound is a correctness input (it pads the index's
		// query radius), so a caller-supplied value below what the
		// tracks can actually do is raised, never trusted.
		bound := mobility.MaxTrackSpeed(cfg.Tracks)
		if phyCfg.SpeedBound < bound {
			phyCfg.SpeedBound = bound
		}
	}
	w := &World{
		Eng:       sim.NewEngine(),
		Collector: stats.NewCollector(),
		Oracle:    cfg.Oracle,
		Tracer:    cfg.Tracer,
	}
	w.Collector.AttachSinks(w.Eng.Now, cfg.Sinks...)
	w.Channel = phy.NewChannelWithConfig(w.Eng, cfg.Radio, phyCfg)
	// One flattened position table for the whole population, precomputed
	// off the event loop: the channel reads (and batch-refreshes) positions
	// from struct-of-arrays state, memoised per (node, timestamp), instead
	// of calling one closure per node mid-dispatch.
	w.Channel.SetPositionTable(mobility.NewTable(cfg.Tracks))
	root := sim.NewRNG(cfg.Seed)
	for i, tr := range cfg.Tracks {
		id := pkt.NodeID(i)
		n := &Node{id: id, world: w, Track: tr}
		nodeRNG := root.Fork(int64(i))
		n.rng = nodeRNG.ForkNamed("proto")
		n.Radio = w.Channel.AttachRadio(id, nil, nil)
		n.Mac = mac.New(w.Eng, id, n.Radio, n, nodeRNG.ForkNamed("mac"), cfg.Mac)
		n.Radio.SetReceiver(n.Mac)
		n.Proto = cfg.Protocol(id)
		w.Nodes = append(w.Nodes, n)
	}
	// Nodes whose first lifecycle event brings them up (bootstrap joins,
	// recoveries) start the run powered down. InitialUp returns nil for the
	// empty schedule, so the static lifecycle touches nothing here.
	w.lifecycle = cfg.Lifecycle
	for i, up := range lifecycle.InitialUp(cfg.Lifecycle, len(cfg.Tracks)) {
		if !up {
			w.Channel.SetNodeUp(pkt.NodeID(i), false)
		}
	}
	return w, nil
}

// Start opens the collector's measurement window, boots every routing agent
// (schedules beacons etc.), delivers the initial Up hook to lifecycle-aware
// protocols on initially-up nodes, and registers the membership schedule
// with the engine.
func (w *World) Start() {
	w.Collector.Begin(w.Eng.Now())
	for _, n := range w.Nodes {
		n.Proto.Start(n)
	}
	for _, n := range w.Nodes {
		if !n.Up() {
			continue
		}
		if la, ok := n.Proto.(LifecycleAware); ok {
			la.Up(w.Eng.Now())
		}
	}
	w.scheduleLifecycle()
}

// Run executes the simulation until the horizon and finalizes MAC counters
// into the collector. A world may run in phases, one call per phase: the
// measurement window Start opened stays open, and each call replaces the
// MAC totals with the cumulative ones. The context, when cancellable, is
// polled periodically inside the event loop so long simulations can be
// aborted; a nil context is treated as context.Background().
func (w *World) Run(ctx context.Context, until sim.Time) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() != nil {
		w.Eng.Interrupt = ctx.Err
	} else {
		// Clear any interrupt left by a previous phased run with a
		// since-expired context.
		w.Eng.Interrupt = nil
	}
	if err := w.Eng.Run(until); err != nil {
		return err
	}
	w.Collector.Finish(w.Eng.Now())
	w.autoconfCensus()
	var frames, bytes uint64
	for _, n := range w.Nodes {
		s := n.Mac.Stats
		frames += s.RTSSent + s.CTSSent + s.AckSent
		bytes += s.CtlBytes
	}
	w.Collector.OnMacControl(frames, bytes)
	return nil
}

// Node returns the node with the given id.
func (w *World) Node(id pkt.NodeID) *Node { return w.Nodes[id] }
