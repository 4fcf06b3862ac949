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
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps, and determinism
	gen uint64 // incremented on recycle; validates Handles
	fn  EventFunc
	idx int // queue-internal position (≥0 while queued), -1 once popped
}

// eventBefore is the strict total order every queue implementation must
// dispatch in: timestamp first, then scheduling sequence. Because no two
// events share (at, seq), any correct implementation of eventQueue yields
// the same dispatch sequence — determinism does not depend on the queue
// shape, which is what lets the calendar queue replace the heap without
// perturbing a single result bit.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the engine's pluggable priority queue. Implementations
// must dispatch in eventBefore order, keep ev.idx ≥ 0 while an event is
// queued and set it to -1 on pop/remove (Cancel keys off that), and return
// nil from peek/popMin when empty.
type eventQueue interface {
	push(ev *event)
	peek() *event
	popMin() *event
	remove(ev *event)
	size() int
}

// QueueKind names an eventQueue implementation. The zero value leaves the
// choice to the engine: it starts on the heap and moves, once and one-way,
// to the calendar queue when the queue outgrows autoCalendarAt. QueueHeap
// and QueueCalendar pin one implementation for the whole run — they are the
// test oracle and what the benchmark's per-implementation probes price.
type QueueKind uint8

const (
	queueAuto QueueKind = iota
	// QueueHeap is the 4-ary min-heap: O(log n) per operation, unbeatable
	// constants at the study's 25–500 node populations.
	QueueHeap
	// QueueCalendar is the calendar queue (Brown 1988): O(1) amortized
	// insert/pop, the better fit for city-scale runs whose pending-event
	// populations reach the tens of thousands.
	QueueCalendar
)

func (k QueueKind) String() string { return [...]string{"auto", "heap", "calendar"}[k] }

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). Heap
// maintenance is the single hottest loop of a large run, so the heap works
// directly on the concrete slice — no container/heap interface dispatch per
// comparison — and the wider fan-out halves the tree depth (pops do ~4
// compares per level but half the levels and half the swaps of a binary
// heap, a net win for the pop-heavy event-loop workload). Because (at, seq)
// is a strict total order over events, any correct heap yields the same
// dispatch sequence: determinism does not depend on the heap shape.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.idx)
}

// peek returns the minimum event without removing it (nil when empty).
func (h *eventHeap) peek() *event {
	if len(*h) == 0 {
		return nil
	}
	return (*h)[0]
}

func (h *eventHeap) size() int { return len(*h) }

// remove unlinks a queued event (for cancellation).
func (h *eventHeap) remove(ev *event) { h.removeAt(ev.idx) }

// popMin removes and returns the minimum event (nil when empty).
func (h *eventHeap) popMin() *event {
	old := *h
	if len(old) == 0 {
		return nil
	}
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].idx = 0
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	ev.idx = -1
	return ev
}

// removeAt removes the event at index i (for cancellation).
func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old[i] = old[n]
		old[i].idx = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	ev.idx = -1
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].idx = i
		h[parent].idx = parent
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		min := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		h[i].idx = i
		h[min].idx = min
		i = min
	}
}

// Engine is a single-threaded discrete-event scheduler. It is NOT safe for
// concurrent use; run one Engine per goroutine.
type Engine struct {
	now   Time
	queue eventQueue
	// heap is queue's concrete type while a self-selecting engine is still on
	// it (push reads its length without an interface call), otherwise nil.
	heap       *eventHeap
	calendarAt int     // heap length above which the engine moves to the calendar
	lanes      []*Lane // FIFO side channels dispatched alongside the queue (see Lane)
	nextSeq    uint64
	free       []*event // recycled event structs (see alloc/recycle)
	stopped    bool

	// Executed counts events actually dispatched (statistics / loop guards).
	Executed uint64
	// Limit, when non-zero, aborts Run with an error after this many events.
	// It is a guard against runaway protocol loops in tests.
	Limit uint64

	// Interrupt, when non-nil, is polled every InterruptEvery events during
	// Run; a non-nil return aborts Run with that error. This is how external
	// cancellation (context.Context) reaches the event loop without putting
	// a channel receive on the per-event hot path.
	Interrupt func() error
	// InterruptEvery is the polling period in events (0 selects a default
	// of 4096, frequent enough for sub-millisecond cancellation latency).
	InterruptEvery uint64
}

// autoCalendarAt is the queue length above which a self-selecting engine
// leaves the heap for the calendar. BenchmarkQueueHold, ns per event heap /
// calendar (PR 24, -cpu 1, median of 5): 42 / 67 at 3 pending, 100 / 102 at
// 50, 115 / 100 at 200, 141 / 104 at 500, 152 / 108 at 1k, 209 / 147 at 10k.
// The hold model has one timescale, the calendar's best case; a run mixes µs
// MAC slots with second-scale timers. So the switch waits until the heap's
// log n is past doubt: over 3× the paper regime's deepest queue (145), which
// never pays a migration.
//
// Both queues stay because the calendar measures ahead where it is used.
// Prototypes with one queue deleted, against this engine (shared 2-core Xeon
// 2.1 GHz, go1.24, 20 s benchmark runs, alternating pairs, median [q1–q3],
// result digests identical):
//   - heap only, city_10k, 20 pairs: run_s 1.85 [1.74–1.93] → 2.00
//     [1.90–2.08] s (+8.0 %), heap faster in 6 of 20; allocs_per_run −2.0 %.
//   - heap only, city_10k_churn, 20 pairs: run_s 1.63 [1.58–1.76] → 1.80
//     [1.72–1.94] s (+10.8 %), heap faster in 3 of 20; allocs_per_run −5.1 %,
//     setup_s −12.2 % (20 of 20).
//   - calendar only, campaign_cluster: units_per_s 363 → 372, 1 of 4 pairs;
//     allocs_per_run 5 398 → 5 615 (+4 %).
//   - calendar only, paper_study: run_s 8.05 → 8.13 s, 1 of 4 pairs.
//
// Neither city loss clears 9 of 10 pairs, but neither row has the heap
// ahead: one queue would trade city run time for less code.
const autoCalendarAt = 512

// NewEngine returns an empty engine with the clock at time zero that picks
// its own event queue (see QueueKind).
func NewEngine() *Engine { return newEngineAuto(autoCalendarAt) }

// newEngineAuto lets tests cross the threshold with small scripts.
func newEngineAuto(calendarAt int) *Engine {
	h := new(eventHeap)
	return &Engine{queue: h, heap: h, calendarAt: calendarAt}
}

// NewEngineQueue returns an empty engine pinned to the given implementation
// (self-selecting for the zero value). Every kind dispatches the exact same
// (at, seq) sequence.
func NewEngineQueue(kind QueueKind) *Engine {
	switch kind {
	case QueueHeap:
		return &Engine{queue: new(eventHeap)}
	case QueueCalendar:
		return &Engine{queue: newCalQueue(0, nil)}
	}
	return NewEngine()
}

// Queue reports the implementation in use: on a self-selecting engine,
// QueueHeap until the migration and QueueCalendar from then on.
func (e *Engine) Queue() QueueKind {
	if _, ok := e.queue.(*calQueue); ok {
		return QueueCalendar
	}
	return QueueHeap
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-cancelled) events, wherever they
// are held: the queue plus every lane.
func (e *Engine) Len() int {
	n := e.queue.size()
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
	ev.at, ev.seq, ev.fn = at, seq, fn
	e.queue.push(ev)
	if e.heap != nil && len(*e.heap) > e.calendarAt {
		// Nothing pending is earlier than the clock, so it seeds the cursor.
		e.queue, e.heap = newCalQueue(e.now, *e.heap), nil
	}
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
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.idx < 0 {
		return false
	}
	e.queue.remove(ev)
	e.recycle(ev)
	return true
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in (timestamp, sequence) order until nothing is
// pending, the clock passes until, or Stop is called. Events scheduled
// exactly at until still run. The clock is left at min(until, last event
// time).
func (e *Engine) Run(until Time) error {
	e.stopped = false
	every := e.InterruptEvery
	if every == 0 {
		every = 4096
	}
	for !e.stopped {
		// The next event is the (at, seq)-minimum over the queue head and
		// every lane head; src is the lane holding it, nil for the queue.
		ev := e.queue.peek()
		var src *Lane
		var at Time
		var seq uint64
		found := ev != nil
		if found {
			at, seq = ev.at, ev.seq
		}
		for _, l := range e.lanes {
			if l.n == 0 {
				continue
			}
			if h := &l.buf[l.head]; !found || h.At < at || (h.At == at && h.seq < seq) {
				src, at, seq, found = l, h.At, h.seq, true
			}
		}
		if !found || at > until {
			break
		}
		var fn EventFunc
		if src != nil {
			fn = src.pop()
		} else {
			e.queue.popMin()
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
		if e.Interrupt != nil && e.Executed%every == 0 {
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
// The zero value is unusable; create with NewTimer.
type Timer struct {
	e    *Engine
	fn   EventFunc
	fire EventFunc // wrapping closure, allocated once (Reset is hot)
	h    Handle
	on   bool
}

// NewTimer binds fn to engine e. The timer starts stopped.
func NewTimer(e *Engine, fn EventFunc) *Timer {
	t := &Timer{e: e, fn: fn}
	t.fire = func() {
		t.on = false
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire after d, cancelling any pending firing.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.on = true
	t.h = t.e.ScheduleIn(d, t.fire)
}

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Stop()
	t.on = true
	t.h = t.e.Schedule(at, t.fire)
}

// Stop cancels a pending firing. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	if !t.on {
		return false
	}
	t.on = false
	return t.e.Cancel(t.h)
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.on }

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
