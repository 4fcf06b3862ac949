package sim

import "fmt"

// EventFunc is the body of a scheduled event. It runs with the engine clock
// set to the event's timestamp.
type EventFunc func()

// Handle identifies a scheduled event so it can be cancelled. It carries a
// direct pointer to the (pooled) event struct plus the generation the event
// had when scheduled: recycling bumps the generation, so stale handles to
// fired or cancelled events are rejected without any lookup table on the
// per-event hot path. The zero Handle is invalid.
type Handle struct {
	ev  *event
	gen uint64
}

type event struct {
	gen uint64 // incremented on recycle; validates Handles
	fn  EventFunc
	idx int // heap slot while queued, -1 once popped or removed
}

// QueueKind names an event queue, for callers that still pass one. The
// engine has one queue, the heap, and every kind selects it.
type QueueKind uint8

const (
	// QueueHeap selects the heap, as every kind does.
	QueueHeap QueueKind = iota + 1
	// QueueCalendar selects the heap too; eventHeap says why there is no
	// calendar queue.
	QueueCalendar
)

// heapEntry is one queued event with its dispatch key held beside it, so
// heap comparisons never dereference an event.
type heapEntry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps, and determinism
	ev  *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is the engine's event queue: a hand-rolled 4-ary min-heap
// ordered by (at, seq). Heap maintenance is the single hottest loop of a
// large run, so the heap works directly on the concrete slice — no
// container/heap interface dispatch per comparison — and the wider fan-out
// halves the tree depth (pops do ~4 compares per level but half the levels
// of a binary heap, a net win for the pop-heavy event loop). Sifts carry
// the moving entry as a hole and write it once, instead of swapping pairs.
// Because (at, seq) is a strict total order over events, any correct heap
// yields the same dispatch sequence: determinism does not depend on the
// heap shape.
//
// It is the only queue because a calendar queue (Brown 1988), which
// engines used to move to past 512 pending events, did not pay for itself
// in runs. Shared 2-core Xeon 2.1 GHz, go1.24, alternating pairs, median
// [q1–q3], results identical:
//   - hold model (BenchmarkQueueHold, -cpu 1, median of 5), ns per event,
//     a heap of bare pointers / the calendar: 42 / 67 at 3 pending, 100 /
//     102 at 50, 115 / 100 at 200, 141 / 104 at 500, 152 / 108 at 1k, 209 /
//     147 at 10k. The hold model has one timescale, the calendar's best
//     case; a run mixes µs MAC slots with second-scale timers.
//   - the connected 1k-node AODV scene (waypoint 20 m/s, pause 0, 7.5 ×
//     1.5 km, 50 flows, 20 s), 10 pairs: 11.89 [11.63–13.43] s with the
//     move to the calendar, 10.35 [9.94–11.35] s on this heap, which was
//     faster in all 10.
//   - the 20 s city benchmark workloads, a heap of bare pointers against
//     the calendar, 20 pairs each: run_s +8.0 % on city_10k (heap faster
//     in 6 of 20), +10.8 % on city_10k_churn (3 of 20). This heap, keys
//     inline, 10 pairs each: run_s 2.02 [1.84–2.05] → 1.98 [1.70–2.06] s
//     on city_10k (6 of 10) and 1.79 [1.58–1.88] → 1.76 [1.58–1.88] s on
//     city_10k_churn (7 of 10), with 3.5 % and 7.9 % fewer allocations.
//   - the paper regime's deepest queue is 145 events: it never left the
//     heap.
type eventHeap []heapEntry

// push queues ev under the key (at, seq).
func (h *eventHeap) push(at Time, seq uint64, ev *event) {
	*h = append(*h, heapEntry{at: at, seq: seq, ev: ev})
	h.siftUp(len(*h) - 1)
}

// popMin removes and returns the minimum event. The heap must not be empty.
func (h *eventHeap) popMin() *event {
	old := *h
	ev := old[0].ev
	n := len(old) - 1
	old[0] = old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	ev.idx = -1
	return ev
}

// remove unlinks the event in slot i (for cancellation).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i].ev
	old[i] = old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	ev.idx = -1
}

// siftUp moves the entry in slot i towards the root until its parent is
// before it.
func (h eventHeap) siftUp(i int) {
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.idx = i
		i = parent
	}
	h[i] = x
	x.ev.idx = i
}

// siftDown moves the entry in slot i towards the leaves until no child is
// before it.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&x) {
			break
		}
		h[i] = h[min]
		h[i].ev.idx = i
		i = min
	}
	h[i] = x
	x.ev.idx = i
}

// Engine is a single-threaded discrete-event scheduler. It is NOT safe for
// concurrent use; run one Engine per goroutine.
type Engine struct {
	now     Time
	queue   eventHeap
	lanes   []*Lane // FIFO side channels dispatched alongside the queue (see Lane)
	nextSeq uint64
	free    []*event // recycled event structs (see alloc/recycle)
	stopped bool

	// Executed counts events actually dispatched (statistics / loop guards).
	Executed uint64
	// Limit, when non-zero, aborts Run with an error after this many events.
	// It is a guard against runaway protocol loops in tests.
	Limit uint64

	// Interrupt, when non-nil, is polled every interruptEvery events during
	// Run; a non-nil return aborts Run with that error. This is how external
	// cancellation (context.Context) reaches the event loop without putting
	// a channel receive on the per-event hot path.
	Interrupt func() error
}

// interruptEvery is Run's Interrupt polling period in events, frequent
// enough for sub-millisecond cancellation latency.
const interruptEvery = 4096

// NewEngine returns an empty engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// NewEngineQueue returns NewEngine(): every kind selects the heap.
func NewEngineQueue(QueueKind) *Engine { return NewEngine() }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-cancelled) events, wherever they
// are held: the queue plus every lane.
func (e *Engine) Len() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

// alloc takes an event struct from the free list, or heap-allocates one.
// Pooling matters at scale: every transmission, timer and MAC slot is one
// event, and recycling the structs keeps the per-event allocation off the
// large-N hot path.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// maxFreeEvents caps the recycled-event free list. Without a cap the list
// grows to the run's peak pending-event count and stays there: one
// burst-heavy phase (a broadcast storm fanning out to a 10k-node
// neighbourhood) would pin that peak's memory for the rest of a long run.
// Structs recycled beyond the cap are released to the GC instead; their
// bumped generation still invalidates outstanding Handles.
const maxFreeEvents = 1 << 15

// recycle returns an event struct to the free list. The caller must have
// removed it from the queue. Bumping the generation invalidates outstanding
// Handles; dropping the closure reference keeps recycled events from
// pinning captured memory (the remaining fields are overwritten on reuse).
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// panics: it always indicates a model bug.
func (e *Engine) Schedule(at Time, fn EventFunc) Handle {
	ev := e.push(at, e.stamp(at), fn)
	return Handle{ev: ev, gen: ev.gen}
}

// stamp validates a new event's timestamp and draws its sequence number.
// Every event, whether it ends up in the queue or in a lane, is numbered
// here, in call order.
func (e *Engine) stamp(at Time) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.nextSeq++
	return e.nextSeq
}

// push queues an already-numbered event.
func (e *Engine) push(at Time, seq uint64, fn EventFunc) *event {
	ev := e.alloc()
	ev.fn = fn
	e.queue.push(at, seq, ev)
	return ev
}

// ScheduleIn runs fn after delay d (clamped to zero).
func (e *Engine) ScheduleIn(d Duration, fn EventFunc) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or already-
// cancelled handle is a no-op and reports false.
func (e *Engine) Cancel(h Handle) bool {
	if !h.pending() {
		return false
	}
	e.queue.remove(h.ev.idx)
	e.recycle(h.ev)
	return true
}

// pending reports whether h's event is still queued: not fired, not
// cancelled. Run unlinks an event and bumps its generation before
// dispatching it, so a handle reads false inside its own callback.
func (h Handle) pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.idx >= 0
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in (timestamp, sequence) order until nothing is
// pending, the clock passes until, or Stop is called. Events scheduled
// exactly at until still run. The clock is left at min(until, last event
// time).
func (e *Engine) Run(until Time) error {
	e.stopped = false
	for !e.stopped {
		// The next event is the (at, seq)-minimum over the heap's root and
		// every lane head; src is the lane holding it, nil for the heap.
		var src *Lane
		var at Time
		var seq uint64
		found := len(e.queue) > 0
		if found {
			at, seq = e.queue[0].at, e.queue[0].seq
		}
		for _, l := range e.lanes {
			if l.n == 0 {
				continue
			}
			if h := &l.buf[l.head]; !found || h.at < at || (h.at == at && h.seq < seq) {
				src, at, seq, found = l, h.at, h.seq, true
			}
		}
		if !found || at > until {
			break
		}
		var fn EventFunc
		if src != nil {
			fn = src.pop()
		} else {
			ev := e.queue.popMin()
			fn = ev.fn
			// Recycle before dispatch: ev is out of the queue, so fn (which
			// may Schedule) can reuse the struct immediately, and its bumped
			// generation makes self-cancellation from within fn a no-op.
			e.recycle(ev)
		}
		e.now = at
		e.Executed++
		if e.Limit != 0 && e.Executed > e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		if e.Interrupt != nil && e.Executed%interruptEvery == 0 {
			if err := e.Interrupt(); err != nil {
				return err
			}
		}
		fn()
	}
	if until != Never && e.now < until && !e.stopped {
		e.now = until
	}
	return nil
}

// RunAll dispatches every pending event regardless of timestamp.
func (e *Engine) RunAll() error { return e.Run(Never) }

// Timer is a restartable one-shot timer bound to an engine, the building
// block for protocol timeouts (route expiry, retransmission, hello beacons).
// It schedules fn itself, and its handle is the only record of whether it
// is armed: pending is the handle's state in the engine. The zero value is
// unusable; create with NewTimer.
type Timer struct {
	e  *Engine
	fn EventFunc
	h  Handle
}

// NewTimer binds fn to engine e. The timer starts stopped.
func NewTimer(e *Engine, fn EventFunc) *Timer { return &Timer{e: e, fn: fn} }

// Reset (re)arms the timer to fire after d, cancelling any pending firing.
func (t *Timer) Reset(d Duration) {
	t.e.Cancel(t.h)
	t.h = t.e.ScheduleIn(d, t.fn)
}

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.e.Cancel(t.h)
	t.h = t.e.Schedule(at, t.fn)
}

// Stop cancels a pending firing. It reports whether a firing was pending.
func (t *Timer) Stop() bool { return t.e.Cancel(t.h) }

// Pending reports whether the timer is armed. It is false inside the
// timer's own callback, until the callback re-arms it.
func (t *Timer) Pending() bool { return t.h.pending() }

// Ticker repeatedly invokes fn every interval until stopped. Intervals may be
// jittered by the caller via the OnTick hook returning the next interval.
type Ticker struct {
	t        *Timer
	interval Duration
	stopped  bool
	// Jitter, if non-nil, returns the next interval (e.g. randomized
	// beacon spacing). It is consulted before every tick.
	Jitter func() Duration
}

// NewTicker creates a ticker bound to e that calls fn every interval once
// started. fn runs before the next tick is scheduled, so fn may Stop it.
func NewTicker(e *Engine, interval Duration, fn EventFunc) *Ticker {
	tk := &Ticker{interval: interval}
	tk.t = NewTimer(e, func() {
		fn()
		if !tk.stopped {
			tk.schedule()
		}
	})
	return tk
}

func (tk *Ticker) schedule() {
	iv := tk.interval
	if tk.Jitter != nil {
		iv = tk.Jitter()
	}
	tk.t.Reset(iv)
}

// Start begins ticking; the first tick fires after one interval (plus jitter).
func (tk *Ticker) Start() {
	tk.stopped = false
	tk.schedule()
}

// StartIn begins ticking with a custom first delay.
func (tk *Ticker) StartIn(first Duration) {
	tk.stopped = false
	tk.t.Reset(first)
}

// Stop cancels future ticks.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.t.Stop()
}
