// Package lifecycle compiles named churn models into deterministic per-run
// schedules of node membership events (Join/Leave/Fail/Recover). It is the
// fourth scenario-model kind, next to mobility, traffic and radio: a
// scenario.Spec names a lifecycle model (scenario.LifecycleSpec),
// the model's builder shapes it from parameters, and Schedule expands it
// into a concrete event list from the run's "lifecycle" RNG substream — so
// identical (spec, seed) pairs replay the same churn across processes.
//
// The zero-value spec selects the static model (no events, the whole
// population up for the whole run), which the network layer treats
// bit-identically to the fixed-population harness the study started from.
package lifecycle

import (
	"fmt"
	"sort"

	"adhocsim/internal/geo"
	"adhocsim/internal/sim"
)

// EventKind classifies a membership transition.
type EventKind uint8

const (
	// Join brings a node into the network (bootstrap / flash-crowd
	// arrival). A node whose first scheduled event is a Join starts the
	// run powered down.
	Join EventKind = iota
	// Leave removes a node gracefully (user departure).
	Leave
	// Fail removes a node abruptly (crash, battery death). The network
	// layer treats Leave and Fail identically today; the distinction is
	// kept for models and traces.
	Fail
	// Recover returns a failed node to the network. Like Join, a node
	// whose first scheduled event is a Recover starts the run down.
	Recover

	numEventKinds
)

var kindNames = [numEventKinds]string{
	Join:    "join",
	Leave:   "leave",
	Fail:    "fail",
	Recover: "recover",
}

// String returns the stable name of the kind.
func (k EventKind) String() string {
	if k < numEventKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsUp reports whether the kind transitions the node to the up state.
func (k EventKind) IsUp() bool { return k == Join || k == Recover }

// Event is one membership transition of one node at one virtual time.
type Event struct {
	At   sim.Time  `json:"at"`
	Node int       `json:"node"`
	Kind EventKind `json:"kind"`
}

// Env carries the scenario-level context into a model builder and into
// Schedule: the population size, the run horizon, and the simulation area
// (spatially-correlated models like partition-heal need it). Pos reports a
// node's position at a virtual time when the caller has mobility tracks on
// hand (scenario.Generate installs a track-table lookup); it may be nil,
// in which case position-dependent models treat every node as sitting at
// the origin — Spec.Validate dry-runs schedules this way, which preserves
// the time-boundary checks without generating tracks.
type Env struct {
	Nodes    int
	Duration sim.Duration
	Area     geo.Rect
	Pos      func(node int, at sim.Time) geo.Point
}

// posAt resolves a node position through Env.Pos, origin-pinned when nil.
func (e Env) posAt(node int, at sim.Time) geo.Point {
	if e.Pos == nil {
		return geo.Point{}
	}
	return e.Pos(node, at)
}

// Model compiles a deterministic membership schedule for one run.
type Model interface {
	// Schedule returns the run's membership events. It must be pure: the
	// same env and the same rng state must yield the same schedule, and it
	// must tolerate env.Nodes == 0 (Models dry-runs every built model
	// with a zero-node env, so bad parameters fail at Spec.Validate /
	// campaign-submission time). Returned events need not be sorted;
	// callers Normalize before applying.
	Schedule(env Env, rng *sim.RNG) ([]Event, error)
}

// New resolves a model name through Models and builds it for the given
// environment.
func New(name string, env Env, params map[string]float64) (Model, error) {
	return Models.Build(name, env, params)
}

// Normalize sorts a schedule into the canonical application order: by time,
// then node id, then kind. The network layer schedules events in slice
// order, and the engine breaks time ties by scheduling order, so this
// ordering — not model-internal emission order — is what every run replays.
func Normalize(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
}

// Check validates a schedule against the run's shape: every event must name
// a node in [0, nodes) and fall inside the run horizon [0, duration]. It is
// the guard Spec.Validate and Generate apply to every compiled schedule, so
// a model that schedules a join after the run ends is rejected before any
// simulation starts.
func Check(events []Event, nodes int, duration sim.Duration) error {
	end := sim.Time(0).Add(duration)
	for _, ev := range events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("lifecycle: event %s at %v names node %d outside [0,%d)",
				ev.Kind, ev.At, ev.Node, nodes)
		}
		if ev.At < 0 || ev.At.After(end) {
			return fmt.Errorf("lifecycle: %s of node %d at %v falls outside the run horizon [0s,%v]",
				ev.Kind, ev.Node, ev.At, duration)
		}
		if ev.Kind >= numEventKinds {
			return fmt.Errorf("lifecycle: unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

// InitialUp derives each node's membership at time zero from its first
// scheduled event: a node whose first event brings it up (Join/Recover)
// must start down; every other node starts up. A nil return means the
// whole population starts up (the empty/static schedule), which lets the
// network layer keep its zero-allocation fixed-population path.
func InitialUp(events []Event, nodes int) []bool {
	if len(events) == 0 {
		return nil
	}
	up := make([]bool, nodes)
	for i := range up {
		up[i] = true
	}
	seen := make(map[int]bool, len(events))
	// Events are inspected in canonical order so "first event" is
	// well-defined even for unnormalized input.
	sorted := append([]Event(nil), events...)
	Normalize(sorted)
	for _, ev := range sorted {
		if ev.Node < 0 || ev.Node >= nodes || seen[ev.Node] {
			continue
		}
		seen[ev.Node] = true
		if ev.Kind.IsUp() {
			up[ev.Node] = false
		}
	}
	return up
}
