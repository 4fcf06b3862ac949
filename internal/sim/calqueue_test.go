package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// testQueue is one way an engine can hold its queue.
type testQueue struct {
	name string
	new  func() *Engine
}

func (q testQueue) String() string { return q.name }

// pinnedHeap is the reference every other testQueue is compared against.
var pinnedHeap = testQueue{"heap", func() *Engine { return NewEngineQueue(QueueHeap) }}

// queueKinds enumerates both pinned implementations and the self-selecting
// engine at two thresholds: one the equivalence scripts pass while seeding
// their ~440 initial events, one most of them pass mid-run, between cancels,
// timer resets and lane appends. Dispatch-order tests run against all four.
var queueKinds = []testQueue{
	pinnedHeap,
	{"calendar", func() *Engine { return NewEngineQueue(QueueCalendar) }},
	{"auto-early", func() *Engine { return newEngineAuto(64) }},
	{"auto-late", func() *Engine { return newEngineAuto(500) }},
}

func TestCalendarEngineBasics(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		e := NewEngineQueue(QueueCalendar)
		var got []int
		e.Schedule(At(3), func() { got = append(got, 3) })
		e.Schedule(At(1), func() { got = append(got, 1) })
		e.Schedule(At(2), func() { got = append(got, 2) })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 2, 3} {
			if got[i] != want {
				t.Fatalf("order = %v", got)
			}
		}
	})
	t.Run("fifo-ties", func(t *testing.T) {
		e := NewEngineQueue(QueueCalendar)
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(At(1), func() { got = append(got, i) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("equal-time events not FIFO: %v", got)
			}
		}
	})
	t.Run("cancel", func(t *testing.T) {
		e := NewEngineQueue(QueueCalendar)
		var fired []int
		e.Schedule(At(1), func() { fired = append(fired, 1) })
		h := e.Schedule(At(2), func() { fired = append(fired, 2) })
		e.Schedule(At(3), func() { fired = append(fired, 3) })
		if !e.Cancel(h) {
			t.Fatal("cancel of pending event failed")
		}
		if e.Cancel(h) {
			t.Fatal("double cancel succeeded")
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
			t.Fatalf("fired = %v, want [1 3]", fired)
		}
	})
	t.Run("horizon-resume", func(t *testing.T) {
		e := NewEngineQueue(QueueCalendar)
		var fired []int
		e.Schedule(At(1), func() { fired = append(fired, 1) })
		e.Schedule(At(5), func() { fired = append(fired, 5) })
		if err := e.Run(At(2)); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 1 || e.Len() != 1 {
			t.Fatalf("after first phase: fired %v, pending %d", fired, e.Len())
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 2 || fired[1] != 5 {
			t.Fatalf("fired = %v, want [1 5]", fired)
		}
	})
	t.Run("sparse-far-future", func(t *testing.T) {
		// Events separated by hours of empty days exercise the
		// jump-to-minimum path instead of a day-by-day cursor crawl.
		e := NewEngineQueue(QueueCalendar)
		var got []Time
		for _, s := range []float64{0.001, 3600, 7 * 3600, 100 * 3600} {
			at := At(s)
			e.Schedule(at, func() { got = append(got, e.Now()) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("non-monotone dispatch: %v", got)
			}
		}
		if len(got) != 4 {
			t.Fatalf("fired %d events, want 4", len(got))
		}
	})
	t.Run("resize-grow-shrink", func(t *testing.T) {
		// Push far past the grow threshold, then drain past the shrink
		// threshold; order must hold across both rebuilds.
		e := NewEngineQueue(QueueCalendar)
		rng := rand.New(rand.NewSource(7))
		const n = 5000
		var got []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Int63n(int64(10 * Second)))
			e.Schedule(at, func() { got = append(got, e.Now()) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("fired %d events, want %d", len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i] < got[i-1] {
				t.Fatalf("non-monotone dispatch at %d: %v then %v", i, got[i-1], got[i])
			}
		}
	})
}

// queueFiring is one dispatched event as observed by the equivalence fuzz:
// the event's creation id plus the clock at dispatch. Ids are assigned in
// Schedule order, so equal id sequences mean equal (at, seq) sequences. A
// negative id marks the end of a Run(until) phase and carries the pending
// count (as -1-Len()) at the clock the phase stopped on.
type queueFiring struct {
	id int
	at Time
}

// scriptSource feeds a queue script its decisions: a seeded *rand.Rand for
// the table tests, the fuzzer's bytes for FuzzLaneDispatchOrder.
type scriptSource interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// queueScript is one engine being driven through a decision stream. With
// lanes == nil every event goes through Engine.Schedule — the reference.
// With lanes set, the script's non-cancellable events go through them
// instead, in the same call order, so the engine numbers them identically
// and the firing log must not change.
type queueScript struct {
	e       *Engine
	src     scriptSource
	lanes   []*Lane
	log     []queueFiring
	handles []Handle
	timers  []*Timer
	nextID  int

	accepted, fellBack int       // lane appends that stayed in / fell out of a lane
	heldAtStop         int       // events pending in lanes when a Run(until) phase stopped
	seededOn           QueueKind // Engine.Queue() once the initial population was in
}

const (
	// scriptEventCap bounds a script: events stop acting once this many exist.
	scriptEventCap = 4000
	// scriptLaneLag is how far ahead of the clock lane events land. It is
	// short against the script's event spacing, so an out-of-order append
	// shadows its lane (forcing fallbacks) only briefly.
	scriptLaneLag = 2 * Millisecond
)

func newQueueScript(kind testQueue, src scriptSource, useLanes bool) *queueScript {
	s := &queueScript{e: kind.new(), src: src}
	if useLanes {
		s.lanes = []*Lane{s.e.NewLane(), s.e.NewLane()}
	}
	for i := 0; i < 3; i++ {
		id := -100 - i // timers re-fire, so they log under a fixed id
		s.timers = append(s.timers, NewTimer(s.e, func() {
			s.log = append(s.log, queueFiring{id: id, at: s.e.Now()})
			s.act()
		}))
	}
	return s
}

// body returns the next event's function: log the firing, then act.
func (s *queueScript) body() EventFunc {
	id := s.nextID
	s.nextID++
	return func() {
		s.log = append(s.log, queueFiring{id: id, at: s.e.Now()})
		s.act()
	}
}

// schedule issues one cancellable event.
func (s *queueScript) schedule(at Time) {
	s.handles = append(s.handles, s.e.Schedule(at, s.body()))
}

// laneSchedule issues one non-cancellable event through lane li.
func (s *queueScript) laneSchedule(li int, at Time) {
	if s.lanes == nil {
		s.e.Schedule(at, s.body())
		return
	}
	l := s.lanes[li]
	before := l.Len()
	l.Schedule(at, s.body())
	s.count(1, l.Len()-before)
}

// laneBatch issues the timestamps as one batch through lane li; the
// reference schedules them one by one in slice order.
func (s *queueScript) laneBatch(li int, ats []Time) {
	if s.lanes == nil {
		for _, at := range ats {
			s.e.Schedule(at, s.body())
		}
		return
	}
	items := make([]LaneItem, len(ats))
	for i, at := range ats {
		items[i] = LaneItem{At: at, Fn: s.body()}
	}
	l := s.lanes[li]
	before := l.Len()
	l.ScheduleBatch(items)
	s.count(len(items), l.Len()-before)
}

// count books issued lane appends by whether the lane's length took them.
func (s *queueScript) count(issued, accepted int) {
	s.accepted += accepted
	s.fellBack += issued - accepted
}

// act draws the firing event's action. Decisions are consumed in dispatch
// order, so two engines replaying the same source stay action-identical
// exactly as long as their dispatch orders agree — any divergence shows up
// in the firing log.
func (s *queueScript) act() {
	if s.nextID >= scriptEventCap {
		return
	}
	e, src := s.e, s.src
	now := e.Now()
	switch src.Intn(10) {
	case 0: // burst of near-future events, clustered timestamps
		base := now + Time(src.Int63n(int64(50*Millisecond)))
		for k := 0; k < 1+src.Intn(3); k++ {
			s.schedule(base) // exact ties across separate schedules
		}
	case 1: // spread-out future event
		s.schedule(now + Time(src.Int63n(int64(20*Second))))
	case 2: // cancel a random (possibly stale) handle
		if len(s.handles) > 0 {
			e.Cancel(s.handles[src.Intn(len(s.handles))])
		}
	case 3: // reschedule: cancel then re-issue later
		if len(s.handles) > 0 {
			if e.Cancel(s.handles[src.Intn(len(s.handles))]) {
				s.schedule(now + Time(src.Int63n(int64(Second))))
			}
		}
	case 4: // monotone lane appends: a fixed offset from a clock that only grows
		li := src.Intn(2)
		for k := 0; k < 1+src.Intn(3); k++ {
			s.laneSchedule(li, now.Add(scriptLaneLag))
		}
	case 5: // out-of-order lane appends: the second must fall back to the queue
		li := src.Intn(2)
		far := now.Add(scriptLaneLag) + Time(src.Int63n(int64(scriptLaneLag/8)))
		s.laneSchedule(li, far)
		s.laneSchedule(li, now+Time(src.Int63n(int64(far-now))))
	case 6: // unsorted batch with equal timestamps, some tying the lane tail
		li := src.Intn(2)
		base := now.Add(scriptLaneLag)
		ats := make([]Time, 2+src.Intn(6))
		for i := range ats {
			ats[i] = base + Time(src.Intn(3))*Time(Microsecond)
		}
		s.laneBatch(li, ats)
	case 7: // timer churn between the lane traffic
		s.timers[src.Intn(len(s.timers))].Reset(Duration(src.Int63n(int64(Second))))
	case 8:
		s.timers[src.Intn(len(s.timers))].Stop()
	}
}

// run seeds the initial population — with deliberate (at, seq) ties — and
// runs the engine in three phases, the first two stopping at a horizon with
// events (lane events included) still pending.
func (s *queueScript) run(t testing.TB) []queueFiring {
	t.Helper()
	for i := 0; i < 300; i++ {
		at := Time(s.src.Int63n(int64(2 * Second)))
		s.schedule(at)
		switch s.src.Intn(4) {
		case 0:
			s.schedule(at)
		case 1: // early enough not to shadow the script's own appends
			s.laneSchedule(i%2, at/1024)
		}
	}
	s.seededOn = s.e.Queue()
	for _, until := range []Time{At(0.04), At(0.08), Never} {
		if err := s.e.Run(until); err != nil {
			t.Fatal(err)
		}
		s.log = append(s.log, queueFiring{id: -1 - s.e.Len(), at: s.e.Now()})
		for _, l := range s.lanes {
			s.heldAtStop += l.Len()
		}
	}
	if s.e.Executed != uint64(len(s.log)-3) {
		t.Fatalf("Executed = %d, log holds %d firings", s.e.Executed, len(s.log)-3)
	}
	return s.log
}

// runQueueScript drives one engine through the seeded random script.
func runQueueScript(t *testing.T, kind testQueue, seed int64, useLanes bool) *queueScript {
	t.Helper()
	s := newQueueScript(kind, rand.New(rand.NewSource(seed)), useLanes)
	s.run(t)
	return s
}

// diffFirings reports the first difference between two firing logs.
func diffFirings(want, got []queueFiring) string {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			return fmt.Sprintf("diverges at %d of %d/%d: want %+v", i, len(want), len(got), want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("fired %d events, want %d", len(got), len(want))
	}
	return ""
}

// TestQueueEquivalenceFuzz is the randomized scheduler equivalence guard:
// for many seeded random schedule/cancel/reschedule/timer scripts, the pinned
// heap without lanes is the reference, and every testQueue, with and without
// lanes, must dispatch the identical (at, seq) sequence, stop each Run(until)
// phase with the same number pending, and count the same Executed. This is
// the property that makes the engine free to move from the heap to the
// calendar whenever it likes and lanes safe to schedule through
// unconditionally — bit-identical results follow from identical dispatch
// order.
func TestQueueEquivalenceFuzz(t *testing.T) {
	const seeds = 12
	migratedMidRun := 0
	for seed := int64(1); seed <= seeds; seed++ {
		want := runQueueScript(t, pinnedHeap, seed, false).log
		if len(want) < 300 {
			t.Fatalf("seed %d: script fired only %d events — not exercising the queues", seed, len(want))
		}
		for _, kind := range queueKinds {
			for _, useLanes := range []bool{false, true} {
				s := runQueueScript(t, kind, seed, useLanes)
				if d := diffFirings(want, s.log); d != "" {
					t.Fatalf("seed %d: %v queue, lanes %v: %s", seed, kind, useLanes, d)
				}
				if useLanes && (s.accepted < 500 || s.fellBack < 100 || s.heldAtStop == 0) {
					t.Fatalf("seed %d: %d lane appends accepted, %d fell back, %d held across a Run(until) stop — not exercising all three",
						seed, s.accepted, s.fellBack, s.heldAtStop)
				}
				switch kind.name {
				case "auto-early":
					if s.seededOn != QueueCalendar {
						t.Fatalf("seed %d: auto-early engine still on the %v once seeded", seed, s.seededOn)
					}
				case "auto-late":
					if s.seededOn != QueueHeap {
						t.Fatalf("seed %d: auto-late engine left the heap while seeding", seed)
					}
					if s.e.Queue() == QueueCalendar {
						migratedMidRun++
					}
				}
			}
		}
	}
	if migratedMidRun < seeds {
		t.Fatalf("%d of %d auto-late scripts migrated mid-run — not exercising the migration under load", migratedMidRun, 2*seeds)
	}
}

// TestEngineFreeListCapped: recycling must stop growing the free list at
// maxFreeEvents, so a burst's peak event population is not pinned in memory
// for the rest of the run.
func TestEngineFreeListCapped(t *testing.T) {
	for _, kind := range queueKinds {
		e := kind.new()
		n := maxFreeEvents + 5000
		for i := 0; i < n; i++ {
			e.Schedule(Time(i), func() {})
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(e.free) > maxFreeEvents {
			t.Fatalf("%v: free list holds %d events, cap is %d", kind, len(e.free), maxFreeEvents)
		}
		if len(e.free) != maxFreeEvents {
			t.Fatalf("%v: free list holds %d events after an over-cap burst, want exactly %d",
				kind, len(e.free), maxFreeEvents)
		}
	}
}

// TestEngineSelectsQueue: an engine that chooses for itself reports the heap
// until its queue — lanes not counted — passes the threshold and the calendar
// from then on, draining included; pinned engines never move.
func TestEngineSelectsQueue(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	for i := 0; i < 3*autoCalendarAt; i++ {
		l.Schedule(Time(i), func() {})
	}
	for i := 0; i < autoCalendarAt; i++ {
		e.Schedule(Time(i), func() {})
	}
	if e.Queue() != QueueHeap {
		t.Fatalf("on the %v with %d queued and %d in a lane; threshold is %d", e.Queue(), e.queue.size(), l.Len(), autoCalendarAt)
	}
	e.Schedule(0, func() {})
	if e.Queue() != QueueCalendar || e.queue.size() != autoCalendarAt+1 {
		t.Fatalf("on the %v holding %d after passing the threshold", e.Queue(), e.queue.size())
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Queue() != QueueCalendar || e.Executed != 4*autoCalendarAt+1 {
		t.Fatalf("drained: on the %v, %d executed", e.Queue(), e.Executed)
	}

	for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
		e := NewEngineQueue(kind)
		for i := 0; i < 4*autoCalendarAt; i++ {
			e.Schedule(Time(i), func() {})
		}
		if e.Queue() != kind {
			t.Fatalf("engine pinned to the %v reports the %v", kind, e.Queue())
		}
	}
	if got := NewEngineQueue(0).Queue(); got != QueueHeap {
		t.Fatalf("zero-kind engine starts on the %v", got)
	}
}

// TestEngineMigratesLateAndFar: a migration long into a run, of events all
// far ahead of the clock, must aim the calendar from the clock and the
// events — not from day zero at the default width — and then fire them in
// order with their cancel handles still good.
func TestEngineMigratesLateAndFar(t *testing.T) {
	e := newEngineAuto(100)
	start := At(1e6)
	e.Schedule(start, func() {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	var got []int
	var handles []Handle
	for i := 0; i <= 100; i++ {
		// Descending, an hour apart, the nearest a day ahead of the clock.
		at := start.Add(Duration(24+100-i) * 3600 * Second)
		handles = append(handles, e.Schedule(at, func() { got = append(got, i) }))
	}
	q, ok := e.queue.(*calQueue)
	if !ok {
		t.Fatal("101 events on a threshold of 100 did not migrate")
	}
	if q.dayStart > start || start >= q.dayEnd {
		t.Fatalf("cursor day [%v, %v) does not hold the clock %v", q.dayStart, q.dayEnd, start)
	}
	if q.width < 3600*Second {
		t.Fatalf("day width %v for events an hour apart", q.width)
	}
	if !e.Cancel(handles[50]) || e.Cancel(handles[50]) {
		t.Fatal("a handle taken on the heap must cancel exactly once on the calendar")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("fired %d of 100", len(got))
	}
	for k := 1; k < len(got); k++ {
		if got[k] >= got[k-1] {
			t.Fatalf("out of order at %d: %v", k, got)
		}
	}
}

// BenchmarkQueueHold is the classic hold model — every dispatched event
// schedules its successor an exponential delay ahead, so the queue stays at
// one depth — at depths either side of autoCalendarAt, on the self-selecting
// engine and on both pins. It is where that constant comes from.
func BenchmarkQueueHold(b *testing.B) {
	for _, depth := range []struct {
		name string
		n    int
	}{{"3", 3}, {"50", 50}, {"200", 200}, {"500", 500}, {"1k", 1000}, {"10k", 10000}} {
		for _, kind := range []QueueKind{queueAuto, QueueHeap, QueueCalendar} {
			b.Run(depth.name+"/"+kind.String(), func(b *testing.B) {
				e := NewEngineQueue(kind)
				rng := rand.New(rand.NewSource(1))
				left := b.N
				var fn EventFunc
				fn = func() {
					if left--; left <= 0 {
						e.Stop()
					}
					e.ScheduleIn(Duration(rng.ExpFloat64()*float64(Millisecond)), fn)
				}
				for i := 0; i < depth.n; i++ {
					e.ScheduleIn(Duration(rng.ExpFloat64()*float64(Millisecond)), fn)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := e.RunAll(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
