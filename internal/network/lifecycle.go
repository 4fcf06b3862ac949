package network

import (
	"adhocsim/internal/lifecycle"
	"adhocsim/internal/sim"
)

// LifecycleAware is an optional Protocol extension: protocols that
// implement it are told when their node's membership changes, so routing
// state can be (re)initialized on power-up and timers quiesced — and state
// for vanished peers aged out — on power-down. Up fires once at simulation
// start for every initially-up node (after Start), and again at each
// Join/Recover event; Down fires at each Leave/Fail event. Protocols that
// do not implement it simply keep running while down — their emissions are
// suppressed at the node and channel layers.
type LifecycleAware interface {
	Up(at sim.Time)
	Down(at sim.Time)
}

// Autoconfigured is an optional Protocol extension for address
// autoconfiguration protocols: the world's end-of-run census reads each
// node's claimed address and convergence state through it to produce the
// time_to_converge and addr_collision_rate metrics.
type Autoconfigured interface {
	// AutoconfState returns the node's claimed address, whether the claim
	// has converged (survived its probe rounds undefended), and the
	// virtual time convergence was reached.
	AutoconfState() (addr uint32, converged bool, at sim.Time)
}

// scheduleLifecycle registers every membership event with the engine. The
// schedule arrives in canonical (time, node, kind) order from the scenario
// layer, and the engine breaks time ties by scheduling order, so event
// application is deterministic.
func (w *World) scheduleLifecycle() {
	for _, ev := range w.lifecycle {
		ev := ev
		w.Eng.Schedule(ev.At, func() { w.applyLifecycle(ev) })
	}
}

// applyLifecycle flips one node's membership: the channel's liveness bitmap
// (its only holder, which every layer reads), the collector's join/leave
// accounting, and the protocol's lifecycle hooks. Transitions to the
// current state are no-ops, so models may emit redundant events without
// double-counting.
func (w *World) applyLifecycle(ev lifecycle.Event) {
	n := w.Nodes[ev.Node]
	if ev.Kind.IsUp() {
		if n.Up() {
			return
		}
		w.Channel.SetNodeUp(n.id, true)
		w.Collector.OnJoin()
		if la, ok := n.Proto.(LifecycleAware); ok {
			la.Up(w.Eng.Now())
		}
		return
	}
	if !n.Up() {
		return
	}
	w.Channel.SetNodeUp(n.id, false)
	w.Collector.OnLeave()
	if la, ok := n.Proto.(LifecycleAware); ok {
		la.Down(w.Eng.Now())
	}
}

// autoconfCensus folds per-node autoconfiguration outcomes into the
// collector at the end of a run: time_to_converge is the convergence
// instant of the slowest up node (an up node still unconverged at the
// horizon is charged the full run), addr_collision_rate the fraction of up
// nodes whose claimed address is also claimed by another up node. A no-op
// unless the protocol implements Autoconfigured.
func (w *World) autoconfCensus() {
	if len(w.Nodes) == 0 {
		return
	}
	if _, ok := w.Nodes[0].Proto.(Autoconfigured); !ok {
		return
	}
	counts := make(map[uint32]int)
	var members, colliding int
	var ttc float64
	for _, n := range w.Nodes {
		if !n.Up() {
			continue
		}
		ac, ok := n.Proto.(Autoconfigured)
		if !ok {
			continue
		}
		members++
		addr, converged, at := ac.AutoconfState()
		t := at.Seconds()
		if !converged {
			t = w.Eng.Now().Seconds()
		}
		if t > ttc {
			ttc = t
		}
		counts[addr]++
	}
	if members == 0 {
		return
	}
	for _, c := range counts {
		if c > 1 {
			colliding += c
		}
	}
	w.Collector.SetAutoconf(ttc, float64(colliding)/float64(members))
}
