package sim

import "sort"

// calQueue is a calendar-queue event queue (R. Brown, "Calendar Queues: A
// Fast O(1) Priority Queue Implementation for the Simulation Event Set
// Problem", CACM 1988). Virtual time is divided into fixed-width "days";
// day d hashes to bucket d & mask, so the bucket array is one "year" of
// width×len(buckets) nanoseconds that wraps indefinitely. A cursor walks
// the current day forward; popping inspects only the current bucket, and
// pushing appends into the target day's bucket — both O(1) amortized once
// the resize policy keeps the population near a few events per bucket.
//
// Two invariants make dispatch order exactly the heap's (and therefore keep
// runs bit-identical, which the engine's golden parity tests enforce):
//
//   - Each bucket is kept sorted descending by eventBefore, so its tail is
//     the bucket minimum and pops are O(1). A day maps to exactly one
//     bucket, hence the tail of the current day's bucket — filtered to
//     events inside the day — is the global minimum.
//   - No queued event is ever earlier than the cursor's day: pops advance
//     monotonically, and a push before the current day start rewinds the
//     cursor to the pushed event's day.
//
// Long empty stretches (a sparse far-future timer population) would make
// the cursor crawl day by day; after scanning a full year without finding
// an in-day event the queue jumps the cursor straight to the earliest
// event's day instead.
type calQueue struct {
	buckets [][]*event
	mask    int      // len(buckets)-1; len is a power of two
	width   Duration // day width in virtual nanoseconds
	n       int      // queued events

	cur      int  // bucket index of the current day
	dayStart Time // inclusive lower bound of the current day
	dayEnd   Time // exclusive upper bound of the current day
	lastAt   Time // lower bound on every queued event (last pop's at)
}

// minCalBuckets keeps the bucket array from collapsing below a useful size;
// 64 buckets cost ~1.5 kB and avoid resize churn for small populations.
const minCalBuckets = 64

// newCalQueue returns a calendar holding evs, none of them earlier than now:
// the cursor starts on now's day, the width comes from the events' spread,
// and the bucket count is what push's doubling would have reached by then.
// The events come from another queue with idx ≥ 0, all "queued" means here.
func newCalQueue(now Time, evs []*event) *calQueue {
	q := &calQueue{width: Millisecond, n: len(evs), lastAt: now}
	nb := minCalBuckets
	for len(evs) > 2*nb {
		nb *= 2
	}
	q.rebuild(nb, evs)
	return q
}

func (q *calQueue) setBuckets(nb int) {
	q.buckets = make([][]*event, nb)
	q.mask = nb - 1
}

func (q *calQueue) bucketFor(at Time) int {
	return int(int64(at)/int64(q.width)) & q.mask
}

// seek positions the cursor on the day containing t.
func (q *calQueue) seek(t Time) {
	day := int64(t) / int64(q.width)
	q.cur = int(day) & q.mask
	q.dayStart = Time(day * int64(q.width))
	end := q.dayStart + Time(q.width)
	if end < q.dayStart {
		// Day arithmetic overflows only within one width of Never.
		end = Never
	}
	q.dayEnd = end
}

// advanceDay moves the cursor to the next day.
func (q *calQueue) advanceDay() {
	q.cur = (q.cur + 1) & q.mask
	q.dayStart = q.dayEnd
	end := q.dayEnd + Time(q.width)
	if end < q.dayEnd {
		end = Never
	}
	q.dayEnd = end
}

// insert places ev into its day's bucket, keeping the bucket sorted
// descending by eventBefore (tail = bucket minimum). Binary search rather
// than a linear shift: a burst of same-timestamp events all lands in one
// bucket, and each newcomer (highest seq so far) belongs at the head.
func (q *calQueue) insert(ev *event) {
	idx := q.bucketFor(ev.at)
	b := q.buckets[idx]
	i := sort.Search(len(b), func(i int) bool { return eventBefore(b[i], ev) })
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = ev
	q.buckets[idx] = b
}

func (q *calQueue) push(ev *event) {
	if ev.at < q.dayStart {
		// The cursor has moved past this event's day (an out-of-order
		// schedule relative to the last pop's day); rewind so the event
		// cannot be skipped.
		q.seek(ev.at)
	}
	q.insert(ev)
	ev.idx = 0
	q.n++
	if q.n > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// peek advances the cursor to the earliest event's day and returns that
// event (the tail of the current bucket) without removing it.
func (q *calQueue) peek() *event {
	if q.n == 0 {
		return nil
	}
	scanned := 0
	for {
		if q.dayEnd == Never {
			// The day arithmetic has saturated (cursor within one width
			// of Never, reachable only through events scheduled there):
			// a saturated day can no longer discriminate buckets, so
			// find the minimum directly and pin the cursor on its day —
			// the global minimum is its own bucket's minimum, i.e. the
			// tail popMin expects.
			ev := q.minEvent()
			q.seek(ev.at)
			return ev
		}
		if b := q.buckets[q.cur]; len(b) > 0 {
			if ev := b[len(b)-1]; ev.at < q.dayEnd {
				return ev
			}
		}
		q.advanceDay()
		if scanned++; scanned > len(q.buckets) {
			// A whole year of empty days: jump to the earliest event.
			q.seek(q.minEvent().at)
			scanned = 0
		}
	}
}

func (q *calQueue) popMin() *event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	b := q.buckets[q.cur]
	b[len(b)-1] = nil
	q.buckets[q.cur] = b[:len(b)-1]
	q.n--
	q.lastAt = ev.at
	ev.idx = -1
	q.maybeShrink()
	return ev
}

func (q *calQueue) remove(ev *event) {
	idx := q.bucketFor(ev.at)
	b := q.buckets[idx]
	// First index whose element is not after ev; with ev queued that is ev
	// itself (the order is strict: no two events share (at, seq)).
	i := sort.Search(len(b), func(i int) bool { return !eventBefore(ev, b[i]) })
	if i >= len(b) || b[i] != ev {
		panic("sim: calendar queue remove of event not queued")
	}
	copy(b[i:], b[i+1:])
	b[len(b)-1] = nil
	q.buckets[idx] = b[:len(b)-1]
	q.n--
	ev.idx = -1
	q.maybeShrink()
}

func (q *calQueue) size() int { return q.n }

func (q *calQueue) maybeShrink() {
	if nb := len(q.buckets); nb > minCalBuckets && q.n < nb/2 {
		q.resize(nb / 2)
	}
}

// resize rebuilds the calendar with nb buckets around its own events.
func (q *calQueue) resize(nb int) {
	if nb < minCalBuckets {
		nb = minCalBuckets
	}
	evs := make([]*event, 0, q.n)
	for _, b := range q.buckets {
		evs = append(evs, b...)
	}
	q.rebuild(nb, evs)
}

// rebuild lays evs out over nb buckets with a day width matched to their
// spread, the cursor rewound to lastAt (a lower bound on every queued event,
// so nothing can land behind the cursor).
func (q *calQueue) rebuild(nb int, evs []*event) {
	q.width = q.spreadWidth(evs)
	q.setBuckets(nb)
	q.seek(q.lastAt)
	for _, ev := range evs {
		q.insert(ev)
	}
}

// spreadWidth picks a day width placing ~3 events per day across the
// population's current timestamp span, the classic calendar-queue sizing
// that keeps both the per-bucket sort depth and the empty-day scan short.
// Degenerate spans (all events on one timestamp) keep the current width —
// bucketing cannot help there, any width is equivalent.
func (q *calQueue) spreadWidth(evs []*event) Duration {
	if len(evs) < 2 {
		return q.width
	}
	lo, hi := evs[0].at, evs[0].at
	for _, ev := range evs[1:] {
		if ev.at < lo {
			lo = ev.at
		}
		if ev.at > hi {
			hi = ev.at
		}
	}
	w := Duration(int64(hi-lo) / int64(len(evs)) * 3)
	if w <= 0 {
		return q.width
	}
	return w
}

// minEvent scans every bucket tail for the global minimum (only used to
// re-aim the cursor across long empty stretches; each tail is its bucket's
// minimum, so the scan is O(buckets)).
func (q *calQueue) minEvent() *event {
	var best *event
	for _, b := range q.buckets {
		if len(b) == 0 {
			continue
		}
		if ev := b[len(b)-1]; best == nil || eventBefore(ev, best) {
			best = ev
		}
	}
	return best
}
