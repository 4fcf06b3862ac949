package lifecycle

import (
	"fmt"

	"adhocsim/internal/modelreg"
	"adhocsim/internal/sim"
)

// Static is the zero-value lifecycle: the full population is up for the
// whole run and no membership events fire. It compiles to an empty
// schedule, which the network layer treats bit-identically to the
// fixed-population harness.
type Static struct{}

// Schedule implements Model.
func (Static) Schedule(Env, *sim.RNG) ([]Event, error) { return nil, nil }

// StaggeredJoin is the network-initialization setting of Ravelomanana's
// randomized bootstrap protocols: every node starts powered down and joins
// at an independent uniform instant inside [Start, Start+Window], so the
// population ramps up over a seed-derived window instead of appearing
// fully formed at time zero.
type StaggeredJoin struct {
	Start  sim.Duration // window start
	Window sim.Duration // window length
}

// Schedule implements Model: one Join per node, uniform in the window.
func (m StaggeredJoin) Schedule(env Env, rng *sim.RNG) ([]Event, error) {
	if m.Start < 0 || m.Window < 0 {
		return nil, fmt.Errorf("staggered-join: negative window [start=%v window=%v]", m.Start, m.Window)
	}
	events := make([]Event, 0, env.Nodes)
	for i := 0; i < env.Nodes; i++ {
		at := sim.Time(0).Add(m.Start).Add(rng.DurationUniform(0, m.Window))
		events = append(events, Event{At: at, Node: i, Kind: Join})
	}
	Normalize(events)
	return events, nil
}

// FlashCrowd models a burst arrival: a base fraction of the population is
// up from time zero, and everyone else joins inside a tight window
// starting at At — the flash-crowd workload of the campaign tiers.
type FlashCrowd struct {
	BaseFrac float64      // fraction of nodes up from the start
	At       sim.Duration // burst start
	Window   sim.Duration // burst spread
}

// Schedule implements Model. Each node draws its base-membership coin and,
// when it is a burst arrival, its join offset — always in node order, so
// the schedule is a pure function of the rng state.
func (m FlashCrowd) Schedule(env Env, rng *sim.RNG) ([]Event, error) {
	if m.BaseFrac < 0 || m.BaseFrac > 1 {
		return nil, fmt.Errorf("flashcrowd: base_frac %v outside [0,1]", m.BaseFrac)
	}
	if m.At < 0 || m.Window < 0 {
		return nil, fmt.Errorf("flashcrowd: negative burst [at=%v window=%v]", m.At, m.Window)
	}
	var events []Event
	for i := 0; i < env.Nodes; i++ {
		if rng.Bool(m.BaseFrac) {
			continue // up from the start
		}
		at := sim.Time(0).Add(m.At).Add(rng.DurationUniform(0, m.Window))
		events = append(events, Event{At: at, Node: i, Kind: Join})
	}
	Normalize(events)
	return events, nil
}

// OnOffFail gives every node an independent alternating renewal process:
// up periods are exponential with mean MeanUp, outages exponential with
// mean MeanDown, repeating until the horizon. Each node's cycle runs on
// its own fork of the schedule stream (forked in node order), so per-node
// churn is deterministic for a given (spec, seed).
type OnOffFail struct {
	MeanUp   sim.Duration // mean up period before a failure
	MeanDown sim.Duration // mean outage before recovery
}

// Schedule implements Model.
func (m OnOffFail) Schedule(env Env, rng *sim.RNG) ([]Event, error) {
	if m.MeanUp <= 0 || m.MeanDown <= 0 {
		return nil, fmt.Errorf("onoff-fail: non-positive means [up=%v down=%v]", m.MeanUp, m.MeanDown)
	}
	end := sim.Time(0).Add(env.Duration)
	var events []Event
	for i := 0; i < env.Nodes; i++ {
		nr := rng.Fork(int64(i))
		t := sim.Time(0).Add(sim.Seconds(nr.Exp(m.MeanUp.Seconds())))
		for !t.After(end) {
			events = append(events, Event{At: t, Node: i, Kind: Fail})
			t = t.Add(sim.Seconds(nr.Exp(m.MeanDown.Seconds())))
			if t.After(end) {
				break // stays down to the horizon
			}
			events = append(events, Event{At: t, Node: i, Kind: Recover})
			t = t.Add(sim.Seconds(nr.Exp(m.MeanUp.Seconds())))
		}
	}
	Normalize(events)
	return events, nil
}

// PartitionHeal fails every node inside a region of the area for one
// outage window — a region-wide blackout that partitions the network and
// heals. The region is the vertical strip covering RegionFrac of the area
// width; membership is judged by each node's position at the outage start
// (env.Pos; origin-pinned during validation dry runs).
type PartitionHeal struct {
	At         sim.Duration // outage start
	Outage     sim.Duration // outage length
	RegionFrac float64      // fraction of the area width that goes dark
}

// Schedule implements Model.
func (m PartitionHeal) Schedule(env Env, rng *sim.RNG) ([]Event, error) {
	if m.At < 0 || m.Outage <= 0 {
		return nil, fmt.Errorf("partition-heal: bad outage [at=%v outage=%v]", m.At, m.Outage)
	}
	if m.RegionFrac < 0 || m.RegionFrac > 1 {
		return nil, fmt.Errorf("partition-heal: region_frac %v outside [0,1]", m.RegionFrac)
	}
	_ = rng // the outage is deterministic in the spec; kept for the Model contract
	end := sim.Time(0).Add(env.Duration)
	down := sim.Time(0).Add(m.At)
	if down.After(end) {
		return nil, nil
	}
	heal := down.Add(m.Outage)
	cut := env.Area.W * m.RegionFrac
	var events []Event
	for i := 0; i < env.Nodes; i++ {
		if env.posAt(i, down).X > cut {
			continue
		}
		events = append(events, Event{At: down, Node: i, Kind: Fail})
		if !heal.After(end) {
			events = append(events, Event{At: heal, Node: i, Kind: Recover})
		}
	}
	Normalize(events)
	return events, nil
}

// Models is the churn-model table; an empty name selects the static
// fixed-population lifecycle. Every built model is validated with a
// zero-node dry run, so an out-of-range parameter (flashcrowd base_frac=2,
// onoff-fail mean_up_s=0, …) fails at Spec.Validate / campaign-submission
// time rather than mid-campaign — which is why Model.Schedule must
// tolerate n=0.
var Models = modelreg.NewModels("lifecycle", "static", map[string]func(Env, modelreg.Params) (Model, error){
	"static": func(env Env, p modelreg.Params) (Model, error) {
		return Static{}, p.Err()
	},
	"staggered-join": func(env Env, p modelreg.Params) (Model, error) {
		m := StaggeredJoin{
			Start:  p.Duration("start_s", 0),
			Window: p.Duration("window_s", 30*sim.Second),
		}
		return m, p.Err()
	},
	"flashcrowd": func(env Env, p modelreg.Params) (Model, error) {
		m := FlashCrowd{
			BaseFrac: p.Get("base_frac", 0.2),
			At:       p.Duration("at_s", 10*sim.Second),
			Window:   p.Duration("window_s", 2*sim.Second),
		}
		return m, p.Err()
	},
	"onoff-fail": func(env Env, p modelreg.Params) (Model, error) {
		m := OnOffFail{
			MeanUp:   p.Duration("mean_up_s", 60*sim.Second),
			MeanDown: p.Duration("mean_down_s", 10*sim.Second),
		}
		return m, p.Err()
	},
	"partition-heal": func(env Env, p modelreg.Params) (Model, error) {
		m := PartitionHeal{
			At:         p.Duration("at_s", 30*sim.Second),
			Outage:     p.Duration("outage_s", 30*sim.Second),
			RegionFrac: p.Get("region_frac", 0.5),
		}
		return m, p.Err()
	},
}, func(m Model, env Env) error {
	env.Nodes = 0
	_, err := m.Schedule(env, sim.NewRNG(0))
	return err
})
