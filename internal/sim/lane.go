package sim

import (
	"cmp"
	"slices"
)

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
	buf  []LaneItem // ring; len is zero or a power of two
	head int        // index of the oldest pending entry
	n    int        // pending entries
}

// LaneItem is one lane event: what a caller hands to ScheduleBatch, and,
// once numbered, what the ring holds.
type LaneItem struct {
	At  Time
	Fn  EventFunc
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
	l.add(LaneItem{At: at, Fn: fn, seq: l.e.stamp(at)})
}

// ScheduleBatch schedules every item, numbering them in slice order — the
// sequence numbers are those a loop of Schedule calls over items would have
// assigned — and then appending them in (at, seq) order, so a batch whose
// timestamps are unsorted still lands in the lane instead of falling
// through item by item. It reorders items in place; the caller may reuse
// the slice once the call returns.
func (l *Lane) ScheduleBatch(items []LaneItem) {
	for i := range items {
		items[i].seq = l.e.stamp(items[i].At)
	}
	slices.SortFunc(items, func(a, b LaneItem) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, it := range items {
		l.add(it)
	}
}

// add appends the event to the ring when that keeps the ring sorted, and
// hands it to the engine's queue otherwise.
func (l *Lane) add(it LaneItem) {
	if l.n > 0 && it.At < l.buf[(l.head+l.n-1)&(len(l.buf)-1)].At {
		l.e.push(it.At, it.seq, it.Fn)
		return
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = it
	l.n++
}

// grow doubles the ring, unrolling the pending entries to its start.
func (l *Lane) grow() {
	size := 2 * len(l.buf)
	if size < minLaneCap {
		size = minLaneCap
	}
	buf := make([]LaneItem, size)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes the head entry and returns its function. The vacated slot's
// Fn is cleared so a dispatched closure (and whatever payload it captured)
// is not pinned until the ring wraps around to overwrite it.
func (l *Lane) pop() EventFunc {
	ent := &l.buf[l.head]
	fn := ent.Fn
	ent.Fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return fn
}
