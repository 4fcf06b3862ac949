package phy

import (
	"cmp"
	"fmt"
	"slices"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// Receiver is the upper layer (MAC) attached to a Radio.
type Receiver interface {
	// OnReceive delivers a successfully decoded transmission payload.
	// rxPower is the received signal power in Watts (used by preemptive
	// routing variants to detect weakening links).
	OnReceive(payload any, from pkt.NodeID, rxPower float64)
	// OnChannelBusy fires when the medium transitions idle→busy at this
	// radio (physical carrier sense).
	OnChannelBusy()
	// OnChannelIdle fires when the medium transitions busy→idle.
	OnChannelIdle()
}

// Config tunes the channel's transmit fast path. The zero value enables the
// spatial index with exact (per-timestamp) reindexing, which is always
// correct; callers whose nodes move should set ReindexInterval and
// SpeedBound to amortise the reindex cost (network.NewWorld does).
type Config struct {
	// BruteForce disables the spatial index and restores the legacy
	// all-radios transmit loop, the reference the parity tests hold the
	// index to.
	BruteForce bool
	// ReindexInterval bounds how stale the indexed positions may grow
	// before the channel re-captures every radio's position. Zero means
	// "reindex whenever the clock moved": exact positions, no query
	// slack, O(N) work per distinct transmit timestamp.
	ReindexInterval sim.Duration
	// SpeedBound is the maximum node speed in m/s. With a non-zero
	// ReindexInterval the neighbourhood query is padded by
	// SpeedBound×ReindexInterval so that nodes that moved since the last
	// reindex cannot be missed. The channel cannot verify the bound, so a
	// non-positive value together with a positive ReindexInterval falls
	// back to exact per-timestamp reindexing rather than risk a stale
	// index. A scene provably at rest needs neither: the position table's
	// rest horizon says so.
	SpeedBound float64
	// Static is read nowhere — the position table's RestUntil proves how long
	// a scene rests. The name stays for the callers that still assign it.
	Static bool
	// SINR replaces the pairwise ns-2 capture test with cumulative-
	// interference reception: a frame decodes only if its power stays at
	// least CaptureRatio times the sum of the noise floor and every other
	// co-channel arrival's power for its whole duration. Off (the zero
	// value) keeps the bit-identical legacy capture path. Pairwise capture
	// misjudges dense multihop scenes where many individually-weak
	// interferers are collectively fatal (Fu, Liew & Huang).
	SINR bool
	// Scheduler is read nowhere: the engine has one event queue, the heap
	// (sim.QueueKind). The name stays for the callers that still assign it.
	Scheduler sim.QueueKind
}

// Channel is the shared wireless medium. It connects all radios of a run and
// delivers each transmission to every radio whose received power exceeds the
// carrier-sense threshold, after the speed-of-light propagation delay.
//
// Candidate receivers are found through a uniform spatial hash keyed at the
// carrier-sense range rather than a scan of all N radios: each transmission
// visits only the grid cells overlapping the padded carrier-sense disc, in
// NodeID order, so results are bit-identical to the brute-force loop while
// the per-transmission cost drops from O(N) to O(neighbourhood).
//
// Until the rest horizon — the position table's RestUntil — no radio has
// moved, so the index is built once and each sender's sorted leg list is kept
// and replayed instead of re-derived.
type Channel struct {
	eng      *sim.Engine
	params   RadioParams
	cfg      Config
	radios   []*Radio        // indexed by NodeID
	linkProp LinkPropagation // params.Prop when it is link/reception dependent, else nil
	tab      *mobility.Table // flat position source for every radio

	// Every other per-radio fact lives on the Radio; liveness is a slice
	// because the grid's live scan (WithinSortedLive) reads it as a mask.
	up        []bool // false while the node is down (churn); the only copy
	downCount int    // number of down radios (fast path skips the mask at 0)

	grid        *geo.FlatGrid
	lastIndex   sim.Time    // virtual time of the last reindex
	csRange     float64     // carrier-sense range implied by params (cached)
	queryRadius float64     // csRange + movement slack
	pts         []geo.Point // reusable position buffer for reindex
	scratch     []int32     // reusable candidate buffer
	legPool     []*legEvent // legs whose callbacks have all run

	legs []leg   // the current transmit's legs, sorted by (delay, NodeID)
	memo [][]leg // per sender, while at rest: its legs to every radio, up or down

	// The channel's own per-receiver events bypass the engine's priority
	// queue through two monotone lanes (sim.Lane): transmit schedules one
	// transmission's legs in (delay, NodeID) order, so each lands at or
	// after the one before it, and everything an arrival schedules —
	// reception end, busy watchdog, SINR air departure — lands at
	// arrival+duration, so in scheduling order the keys are mostly
	// non-decreasing. An event that is not falls through to the queue on
	// its own. On the ends lane that is common, not rare: frames of
	// different airtimes and the busy watchdogs interleave there, and on a
	// 1 000-node scene 12.95 M of its 19.90 M events (65 %) fall back to
	// the heap.
	arrivals *sim.Lane // arrival legs
	ends     *sim.Lane // reception ends, watchdogs, air departures

	Reindexes uint64 // spatial-index rebuilds (diagnostics)

	// Stats (aggregated across all radios).
	Transmissions uint64
	Deliveries    uint64
	Collisions    uint64
	Captures      uint64
}

// NewChannel creates an empty medium with the default Config (spatial index
// on, exact reindexing).
func NewChannel(eng *sim.Engine, params RadioParams) *Channel {
	return NewChannelWithConfig(eng, params, Config{})
}

// NewChannelWithConfig creates an empty medium with an explicit fast-path
// configuration. Parameters are assumed valid: every public entry point
// (scenario resolution, campaign submission, network.NewWorld) surfaces
// RadioParams.Validate errors before a channel is built, so the old
// constructor-time capture-ratio panic is gone.
func NewChannelWithConfig(eng *sim.Engine, params RadioParams, cfg Config) *Channel {
	c := &Channel{eng: eng, params: params, cfg: cfg, arrivals: eng.NewLane(), ends: eng.NewLane()}
	// One type assertion up front, not one per transmission leg.
	c.linkProp, _ = params.Prop.(LinkPropagation)
	return c
}

// AttachRadio creates and registers the radio for node id. Radios must be
// attached in id order starting from 0, after a position table covering id
// is installed (SetPositionTable); the table serves every position lookup.
// pos must be nil.
func (c *Channel) AttachRadio(id pkt.NodeID, pos func(sim.Time) geo.Point, rcv Receiver) *Radio {
	if int(id) != len(c.radios) {
		panic(fmt.Sprintf("phy: radios must be attached densely; got id %v with %d attached", id, len(c.radios)))
	}
	if pos != nil || c.tab == nil || int(id) >= c.tab.Len() {
		panic(fmt.Sprintf("phy: radio %v needs a nil pos and a position table covering it", id))
	}
	r := &Radio{id: id, ch: c, rcv: rcv}
	r.watchdogFn = r.watchdogFire
	c.radios = append(c.radios, r)
	c.up = append(c.up, true)
	c.memo = nil
	return r
}

// SetNodeUp flips radio id's membership (the lifecycle layer's Join/Leave/
// Fail/Recover events land here). A down radio neither radiates — its MAC
// can keep draining queued frames, but transmit drops them at the channel —
// nor appears as a carrier-sense candidate for anyone else's
// transmissions. Powering down destroys any reception in progress; energy
// already in the air from the node's earlier transmissions keeps
// propagating (it was radiated while up).
func (c *Channel) SetNodeUp(id pkt.NodeID, up bool) {
	if c.up[id] == up {
		return
	}
	c.up[id] = up
	if up {
		c.downCount--
		return
	}
	c.downCount++
	r := c.radios[id]
	if r.rx != nil && !r.rx.corrupted && r.rx.end > c.eng.Now() {
		r.rx.corrupted = true
	}
}

// NodeUp reports radio id's membership: the state SetNodeUp last set, true
// from AttachRadio until then.
func (c *Channel) NodeUp(id pkt.NodeID) bool { return c.up[id] }

// SetPositionTable installs a flattened position source covering every node
// (NodeID = table index). With a table the channel reads positions straight
// out of struct-of-arrays state — and refreshes them in one batch sweep per
// reindex. Install before attaching radios.
func (c *Channel) SetPositionTable(tab *mobility.Table) {
	if tab != nil && tab.Len() < len(c.radios) {
		panic(fmt.Sprintf("phy: position table covers %d nodes, %d radios attached", tab.Len(), len(c.radios)))
	}
	c.tab = tab
	c.memo = nil
}

// atRest reports whether no radio can have moved by time now: until the
// position table's rest horizon.
func (c *Channel) atRest(now sim.Time) bool {
	return now < c.tab.RestUntil()
}

// posAt returns radio id's position at time t from the position table,
// which memoises per (node, timestamp), so the exact per-leg position
// lookups in propagate stay O(1) after the first probe of an event's
// timestamp.
func (c *Channel) posAt(id pkt.NodeID, t sim.Time) geo.Point {
	return c.tab.At(int(id), t)
}

// Radio returns the radio attached for id.
func (c *Channel) Radio(id pkt.NodeID) *Radio { return c.radios[id] }

// reindex re-captures every radio's position into the grid at time now,
// building the grid on first use (cell size = one padded CS range, so a
// query box spans at most 3×3 cells).
func (c *Channel) reindex(now sim.Time) {
	if c.grid == nil {
		c.csRange = c.params.CSRange()
		if g := MaxGain(c.params.Prop); g > 1 {
			// A stochastic model can land up to g× above nominal power,
			// so a link can clear the CS threshold from beyond the
			// nominal CS range. Widen to the distance where even a
			// maximum-gain draw falls below the threshold; the clamp the
			// models enforce is what keeps this bound finite and the
			// distance-pruning index exact (see LinkPropagation).
			c.csRange = c.params.rangeFor(c.params.CSThreshold / g)
		}
		slack := c.cfg.SpeedBound * c.cfg.ReindexInterval.Seconds()
		if slack < 0 {
			// A negative bound or interval must never shrink the query
			// below the carrier-sense range.
			slack = 0
		}
		// The slack keeps moved nodes inside the query disc; the extra
		// metre absorbs float rounding between the bisected range and
		// the exact per-candidate power test that follows.
		c.queryRadius = c.csRange + slack + 1.0
		c.grid = geo.NewFlatGrid(c.queryRadius)
	}
	if cap(c.pts) < len(c.radios) {
		c.pts = make([]geo.Point, len(c.radios))
	}
	c.pts = c.pts[:len(c.radios)]
	// Batch refresh: one linear sweep over the flattened segment arena.
	c.tab.Positions(now, c.pts)
	c.grid.Rebuild(c.pts)
	c.lastIndex = now
	c.Reindexes++
}

// needReindex reports whether the indexed positions are too stale to answer
// a query at time now.
func (c *Channel) needReindex(now sim.Time) bool {
	if c.grid == nil || c.grid.Len() != len(c.radios) {
		return true
	}
	if c.atRest(now) {
		// Nothing has moved yet: the first index still holds.
		return false
	}
	if c.cfg.ReindexInterval <= 0 || c.cfg.SpeedBound <= 0 {
		// No interval — or an interval without a speed bound to pad the
		// query with: reindex whenever the clock moved (always exact).
		return now != c.lastIndex
	}
	return now.Sub(c.lastIndex) >= c.cfg.ReindexInterval
}

// leg is one receiver's share of a transmission.
type leg struct {
	to    pkt.NodeID
	power float64
	delay sim.Duration
}

// transmit propagates a frame from r to every radio in carrier-sense range.
func (c *Channel) transmit(r *Radio, payload any, dur sim.Duration) {
	masked := c.downCount > 0
	if masked && !c.up[r.id] {
		// A powered-down sender radiates nothing: the MAC's state machine
		// still sees the transmission complete (txUntil was set), but no
		// energy reaches the medium.
		return
	}
	now := c.eng.Now()
	c.Transmissions++
	legs := c.legsFrom(r, now)
	if n := len(legs); n > 0 {
		// The slowest leg is last; its reception ends dur after it lands.
		r.heldUntil = max(r.heldUntil, now.Add(dur+legs[n-1].delay))
	}
	// The legs come in (delay, NodeID) order: each lands at or after the
	// one before it, so the arrival lane takes every one.
	for _, l := range legs {
		if masked && !c.up[l.to] {
			continue
		}
		le := c.allocLeg()
		le.to, le.payload, le.from, le.power = c.radios[l.to], payload, r.id, l.power
		le.end, le.corrupted, le.refs = now.Add(l.delay+dur), false, 1
		c.arrivals.Schedule(now.Add(l.delay), le.arrive)
	}
}

// legsFrom returns r's legs at time now, sorted by (delay, NodeID). While
// the scene is at rest and power depends on distance alone, the list is
// built once per sender over every radio, up or down (transmit masks it),
// and replayed; otherwise it is rebuilt over the up radios each time. The
// brute-force loop never memoises: it is the oracle the memo is tested on.
func (c *Channel) legsFrom(r *Radio, now sim.Time) []leg {
	rest := c.atRest(now) && c.linkProp == nil && !c.cfg.BruteForce
	if !rest {
		c.memo = nil
	} else if c.memo == nil {
		c.memo = make([][]leg, len(c.radios))
	} else if m := c.memo[r.id]; m != nil {
		return m
	}
	from := c.posAt(r.id, now)
	c.legs = c.legs[:0]
	if c.cfg.BruteForce {
		for _, o := range c.radios {
			if o != r && (c.downCount == 0 || c.up[o.id]) {
				c.propagate(r.id, o.id, from, now)
			}
		}
	} else {
		if c.needReindex(now) {
			c.reindex(now)
		}
		if c.downCount > 0 && !rest {
			c.scratch = c.grid.WithinSortedLive(from, c.queryRadius, int32(r.id), c.up, c.scratch[:0])
		} else {
			c.scratch = c.grid.WithinSorted(from, c.queryRadius, int32(r.id), c.scratch[:0])
		}
		for _, id := range c.scratch {
			c.propagate(r.id, pkt.NodeID(id), from, now)
		}
	}
	sortLegs(c.legs)
	if rest {
		c.memo[r.id] = append(make([]leg, 0, len(c.legs)), c.legs...)
	}
	return c.legs
}

// insertionSortMax is the longest leg list sortLegs sorts by insertion.
const insertionSortMax = 64

// sortLegs orders legs found in NodeID order by (delay, NodeID). A dense
// scene's few dozen go through a stable insertion sort, cheaper at that size
// than calling a comparison function; insertion's quadratic moves would
// show on a carrier-sense domain of hundreds, which gets slices.SortFunc.
func sortLegs(legs []leg) {
	if len(legs) > insertionSortMax {
		slices.SortFunc(legs, func(a, b leg) int {
			if c := cmp.Compare(a.delay, b.delay); c != 0 {
				return c
			}
			return cmp.Compare(a.to, b.to)
		})
		return
	}
	for i := 1; i < len(legs); i++ {
		l := legs[i]
		j := i
		for ; j > 0 && legs[j-1].delay > l.delay; j-- {
			legs[j] = legs[j-1]
		}
		legs[j] = l
	}
}

// propagate adds the leg sender→to to the current transmit's list if the
// received power clears the carrier-sense threshold: the link/reception-
// dependent draw when the model declares one (shadowing, fading — keyed by
// the current transmission's sequence number so grid and brute-force
// candidate orders cannot diverge), else the plain distance model. Both
// candidate loops call it in NodeID order.
func (c *Channel) propagate(sender, to pkt.NodeID, from geo.Point, now sim.Time) {
	d := c.posAt(to, now).Dist(from)
	var power float64
	if c.linkProp != nil {
		power = c.linkProp.LinkRxPower(c.params.TxPower, d, sender, to, c.Transmissions)
	} else {
		power = c.params.Prop.RxPower(c.params.TxPower, d)
	}
	if power < c.params.CSThreshold {
		return
	}
	delay := sim.Seconds(d / SpeedOfLight)
	if delay < sim.Nanosecond {
		delay = sim.Nanosecond
	}
	c.legs = append(c.legs, leg{to: to, power: power, delay: delay})
}
