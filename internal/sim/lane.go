package sim

// Lane is a FIFO side channel into an Engine for event streams whose keys
// are already (almost) non-decreasing in the order they are scheduled — one
// transmission's arrival legs, or the end-of-frame events those arrivals
// schedule at arrival+duration. Such a stream needs no priority queue: a
// ring buffer dispatched from its head is the same order at O(1) per event.
//
// The contract that keeps the global dispatch order exactly the queue's:
//
//   - Every lane event takes its sequence number from the engine's single
//     counter at the Schedule call, exactly as Engine.Schedule would have.
//   - An append is accepted only when its timestamp is at or after the
//     lane's newest pending entry (or the lane is empty). Sequence numbers
//     only grow, so the ring is then sorted ascending by (at, seq) and its
//     head is its minimum. Any other append falls through to the engine's
//     ordinary queue under the same (at, seq) key — the decision is taken
//     per event from the key alone, never configured.
//   - Engine.Run dispatches the (at, seq)-minimum over the queue head and
//     every lane head. (at, seq) is a strict total order over all pending
//     events wherever they are held, so the dispatch sequence — and with it
//     Executed, Limit, Interrupt, Stop and Run(until) — is the one a single
//     queue would have produced.
//
// Lane events are non-cancellable by design: entries are held by value with
// no Handle, which is what makes them free of per-event allocation and
// index upkeep. Anything that may need cancelling belongs in
// Engine.Schedule or a Timer.
type Lane struct {
	e    *Engine
	buf  []laneEntry // ring; len is zero or a power of two
	head int         // index of the oldest pending entry
	n    int         // pending entries
}

// laneEntry is one numbered lane event as the ring holds it.
type laneEntry struct {
	at  Time
	fn  EventFunc
	seq uint64
}

// minLaneCap is the ring's first allocation; it doubles from there.
const minLaneCap = 64

// NewLane attaches a new, empty lane to the engine.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e}
	e.lanes = append(e.lanes, l)
	return l
}

// Len returns the number of events pending in the lane itself (events that
// fell through to the engine's queue are not counted here; Engine.Len
// counts both).
func (l *Lane) Len() int { return l.n }

// Schedule runs fn at absolute time at. Like Engine.Schedule it panics on a
// timestamp before Now; unlike it, the event cannot be cancelled.
func (l *Lane) Schedule(at Time, fn EventFunc) {
	seq := l.e.stamp(at)
	if l.n > 0 && at < l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at {
		l.e.push(at, seq, fn)
		return
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneEntry{at: at, fn: fn, seq: seq}
	l.n++
}

// grow doubles the ring, unrolling the pending entries to its start.
func (l *Lane) grow() {
	size := 2 * len(l.buf)
	if size < minLaneCap {
		size = minLaneCap
	}
	buf := make([]laneEntry, size)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes the head entry and returns its function. The vacated slot's
// fn is cleared so a dispatched closure (and whatever payload it captured)
// is not pinned until the ring wraps around to overwrite it.
func (l *Lane) pop() EventFunc {
	ent := &l.buf[l.head]
	fn := ent.fn
	ent.fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return fn
}
