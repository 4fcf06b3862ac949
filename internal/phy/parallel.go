package phy

import (
	"context"
	"runtime/pprof"
	"sync"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// This file is the intra-run parallel execution layer (Config.Workers > 0):
//
//   - Parallel transmit fan-out: each transmit event's candidate set is
//     partitioned across a worker pool that computes the pure per-receiver
//     work — distance, propagation gain, seed-derived shadowing/fading
//     draws, the carrier-sense threshold check — into a preallocated
//     per-candidate results arena. The single simulation goroutine then
//     commits the surviving arrivals in NodeID order, so scheduled events
//     (and therefore every engine sequence number and all RNG-visible
//     state) are byte-identical to the sequential path. The fan-out is
//     safe precisely because stochastic draws are content-derived from
//     (seed, from, to, txSeq) rather than pulled from a sequential RNG
//     stream: evaluation order cannot influence any draw.
//
//   - Pipelined epoch precomputation: in the epoch-reindex regime the
//     mobility batch refresh and FlatGrid rebuild for the *next* reindex
//     interval run on a background goroutine, double-buffered, and are
//     swapped in at the epoch boundary. The grid built at epoch E serves
//     queries while now−E < interval — exactly the staleness the
//     SpeedBound×interval query padding already covers — and candidate
//     sets remain supersets filtered by the exact per-leg power test, so
//     results are unchanged.
//
// Workers default to off (Config.Workers == 0), which keeps today's
// sequential path instruction-identical.

const (
	// fanoutMinCandidates gates the fan-out per transmit: below this many
	// candidates the pool handoff costs more than the leg math it spreads.
	// Sparse scenes (the city tier at study density) rarely cross it and
	// stay effectively sequential; dense scenes — where the per-transmit
	// candidate set, and with SINR the per-arrival accounting it feeds,
	// actually dominates — cross it on every broadcast.
	fanoutMinCandidates = 32
	// fanoutGrain is the index-chunk size workers claim from the atomic
	// cursor: big enough to amortise the claim, small enough to balance
	// uneven leg costs (shadowing cache misses, fading draws).
	fanoutGrain = 8
)

// legResult is one evaluated transmission leg in the fan-out arena.
type legResult struct {
	power float64
	delay sim.Duration
	ok    bool // cleared when the leg misses the carrier-sense threshold
}

// initParallel decides, once per run, which parallel mechanisms the
// configuration supports, and builds them. Called from the first transmit
// (and again after StopWorkers if the world keeps running).
func (c *Channel) initParallel() {
	c.parInit = true
	// Fan-out needs a concurrency-safe position source and propagation
	// model: the flat table's read-only lookup plus a model that is a
	// pure value type or declares itself ConcurrentSafe. Otherwise legs
	// keep evaluating on the simulation goroutine — correctness is never
	// at stake, only the speedup.
	if c.tab != nil && concurrentSafe(c.params.Prop) {
		if c.fanout == nil {
			c.fanout = sim.NewPool(c.cfg.Workers, "fanout")
		}
	}
	// Pipelined precomputation applies only in the epoch-reindex regime:
	// a position table to batch-sweep and a positive interval with a
	// speed bound padding the queries. The exact and static regimes
	// rebuild per-timestamp or never, and brute force has no index.
	if c.pre == nil && c.tab != nil && !c.cfg.BruteForce && !c.cfg.Static &&
		c.cfg.ReindexInterval > 0 && c.cfg.SpeedBound > 0 {
		c.pre = newPrecomputer(c.tab.Clone())
	}
}

// fanoutReady reports whether this transmit's n candidates should be
// evaluated on the pool.
func (c *Channel) fanoutReady(n int) bool {
	return c.fanout != nil && n >= fanoutMinCandidates
}

// StopWorkers tears down the channel's parallel helpers — the fan-out pool
// and the background precompute goroutine — and waits for them to exit.
// network.World.Run defers it, so no goroutine outlives the run that
// spawned it (campaigns build thousands of worlds per process). Idempotent;
// a later transmit on the same channel lazily re-creates the helpers, so
// phased runs keep working.
func (c *Channel) StopWorkers() {
	if c.pre != nil {
		c.pre.stop()
		c.pre = nil
	}
	if c.fanout != nil {
		c.fanout.Stop()
	}
	c.parInit = false
}

// fanoutAll is the brute-force loop's fan-out: every other up radio is a
// candidate, in NodeID order, exactly as the sequential loop visits them
// (the liveness mask is applied here, before the legs reach the pool, so
// workers never read membership state).
func (c *Channel) fanoutAll(sender *Radio, from geo.Point, payload any, dur sim.Duration, now sim.Time) {
	cands := c.scratch[:0]
	for i := range c.radios {
		if i == int(sender.id) || (c.downCount > 0 && !c.up[i]) {
			continue
		}
		cands = append(cands, int32(i))
	}
	c.scratch = cands
	c.fanoutCands(sender, cands, from, payload, dur, now)
}

// fanoutCands evaluates the candidate legs on the pool and commits the
// survivors sequentially. cands must be sorted ascending and exclude the
// sender (WithinSorted's contract).
func (c *Channel) fanoutCands(sender *Radio, cands []int32, from geo.Point, payload any, dur sim.Duration, now sim.Time) {
	n := len(cands)
	if cap(c.legs) < n {
		c.legs = make([]legResult, n)
	}
	legs := c.legs[:n]
	// Everything a worker reads is frozen for the duration of the
	// ParallelFor: the simulation goroutine is parked inside it, so the
	// table memo, the transmission counter and the params are quiescent.
	txSeq := c.Transmissions
	params := &c.params
	tab, lp := c.tab, c.linkProp
	sid := sender.id
	c.fanout.ParallelFor(n, fanoutGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			id := cands[k]
			d := tab.AtRO(int(id), now).Dist(from)
			var power float64
			if lp != nil {
				power = lp.LinkRxPower(params.TxPower, d, sid, pkt.NodeID(id), txSeq)
			} else {
				power = params.Prop.RxPower(params.TxPower, d)
			}
			if power < params.CSThreshold {
				legs[k].ok = false
				continue
			}
			delay := sim.Seconds(d / SpeedOfLight)
			if delay < sim.Nanosecond {
				delay = sim.Nanosecond
			}
			legs[k] = legResult{power: power, delay: delay, ok: true}
		}
	})
	// Commit on the simulation goroutine in candidate (NodeID) order: the
	// engine hands out sequence numbers in batch order, so committing in
	// exactly the order the sequential loop does keeps every arrival's
	// (time, seq) identity — and all downstream state — byte-identical.
	// SINR air-power accounting happens when these arrivals fire, entirely
	// on the commit side.
	for k, id := range cands {
		lg := &legs[k]
		if !lg.ok {
			continue
		}
		c.commitLeg(c.radios[id], arrival{payload: payload, from: sid, power: lg.power}, dur, now.Add(lg.delay))
	}
}

// refreshIndex brings the spatial index up to date for a query at time now:
// synchronously when pipelining is off, else through the precomputer's
// double buffer.
func (c *Channel) refreshIndex(now sim.Time) {
	if c.pre == nil {
		c.reindex(now)
		return
	}
	c.pre.refresh(c, now)
}

// precomputeReq asks the background goroutine to capture every node's
// position at virtual time at and rebuild the shadow grid from them.
type precomputeReq struct {
	at sim.Time
	n  int
}

// precomputer owns the double buffer of the pipelined reindex: a private
// clone of the position table (its memo state belongs to the background
// goroutine), a shadow grid, and a one-deep request/result handshake with
// the simulation goroutine. Exactly one build is in flight at a time; the
// shadow grid is touched by the simulation goroutine only between a done
// receive and the next kick, so the channel operations carry all the
// happens-before edges the swap needs.
type precomputer struct {
	tab      *mobility.Table
	grid     *geo.FlatGrid
	pts      []geo.Point
	req      chan precomputeReq
	done     chan sim.Time
	quit     chan struct{}
	wg       sync.WaitGroup
	inflight bool
}

func newPrecomputer(tab *mobility.Table) *precomputer {
	p := &precomputer{
		tab:  tab,
		req:  make(chan precomputeReq, 1),
		done: make(chan sim.Time, 1),
		quit: make(chan struct{}),
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("phase", "reindex")))
		for {
			select {
			case <-p.quit:
				return
			case rq := <-p.req:
				if cap(p.pts) < rq.n {
					p.pts = make([]geo.Point, rq.n)
				}
				p.pts = p.pts[:rq.n]
				p.tab.Positions(rq.at, p.pts)
				p.grid.Rebuild(p.pts)
				select {
				case p.done <- rq.at:
				case <-p.quit:
					return
				}
			}
		}
	}()
	return p
}

// refresh satisfies a stale-index query at time now. When the in-flight
// epoch build is fresh enough (its epoch at satisfies 0 ≤ now−at <
// interval, the same staleness window the synchronous scheme grants
// lastIndex), the shadow grid is swapped in and the following epoch is
// kicked off; otherwise — the event stream went quiet past the prepared
// epoch — the speculative build is discarded and the index rebuilds
// synchronously at now, re-priming the pipeline from there.
func (p *precomputer) refresh(c *Channel, now sim.Time) {
	if p.inflight {
		at := <-p.done
		p.inflight = false
		if delta := now.Sub(at); delta >= 0 && delta < c.cfg.ReindexInterval {
			c.grid, p.grid = p.grid, c.grid
			c.lastIndex = at
			c.indexed = true
			c.Reindexes++
			p.kick(c, at)
			return
		}
	}
	c.reindex(now)
	p.kick(c, now)
}

// kick requests the background build of the epoch following the one that
// just became active at time at. Mobility tracks are fully determined for
// all virtual time, so capturing future positions is exact, not a guess.
func (p *precomputer) kick(c *Channel, at sim.Time) {
	if p.grid == nil {
		p.grid = geo.NewFlatGrid(c.queryRadius)
	}
	p.inflight = true
	p.req <- precomputeReq{at: at.Add(c.cfg.ReindexInterval), n: len(c.radios)}
}

func (p *precomputer) stop() {
	close(p.quit)
	p.wg.Wait()
}
