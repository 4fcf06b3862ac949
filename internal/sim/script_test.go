package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

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
	armed   []bool // per timer, the script's own record of whether it is armed
	nextID  int
	t       testing.TB

	accepted, fellBack int // lane appends that stayed in / fell out of a lane
	heldAtStop         int // events pending in lanes when a Run(until) phase stopped
}

const (
	// scriptEventCap bounds a script: events stop acting once this many exist.
	scriptEventCap = 4000
	// scriptLaneLag is how far ahead of the clock lane events land. It is
	// short against the script's event spacing, so an out-of-order append
	// shadows its lane (forcing fallbacks) only briefly.
	scriptLaneLag = 2 * Millisecond
)

func newQueueScript(src scriptSource, useLanes bool) *queueScript {
	s := &queueScript{e: NewEngine(), src: src}
	if useLanes {
		s.lanes = []*Lane{s.e.NewLane(), s.e.NewLane()}
	}
	for i := 0; i < 3; i++ {
		id := -100 - i // timers re-fire, so they log under a fixed id
		s.timers = append(s.timers, NewTimer(s.e, func() {
			s.armed[i] = false
			s.checkTimer(i, "firing")
			s.log = append(s.log, queueFiring{id: id, at: s.e.Now()})
			s.act()
		}))
		s.armed = append(s.armed, false)
	}
	return s
}

// checkTimer fails the run unless timer i's Pending agrees with the
// script's record of it.
func (s *queueScript) checkTimer(i int, after string) {
	if got := s.timers[i].Pending(); got != s.armed[i] {
		s.t.Fatalf("timer %d at %v: Pending = %v after %s, want %v", i, s.e.Now(), got, after, s.armed[i])
	}
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
	case 6: // a run of unsorted, tied appends in slice order, some tying the lane tail
		li := src.Intn(2)
		base := now.Add(scriptLaneLag)
		ats := make([]Time, 2+src.Intn(6))
		for i := range ats {
			ats[i] = base + Time(src.Intn(3))*Time(Microsecond)
		}
		for _, at := range ats {
			s.laneSchedule(li, at)
		}
	case 7: // timer churn between the lane traffic
		i := src.Intn(len(s.timers))
		s.timers[i].Reset(Duration(src.Int63n(int64(Second))))
		s.armed[i] = true
		s.checkTimer(i, "Reset")
	case 8:
		i := src.Intn(len(s.timers))
		if stopped := s.timers[i].Stop(); stopped != s.armed[i] {
			s.t.Fatalf("timer %d at %v: Stop = %v, want %v", i, s.e.Now(), stopped, s.armed[i])
		}
		s.armed[i] = false
		s.checkTimer(i, "Stop")
	}
}

// run seeds the initial population — with deliberate (at, seq) ties — and
// runs the engine in three phases, the first two stopping at a horizon with
// events (lane events included) still pending.
func (s *queueScript) run(t testing.TB) []queueFiring {
	t.Helper()
	s.t = t
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
func runQueueScript(t *testing.T, seed int64, useLanes bool) *queueScript {
	t.Helper()
	s := newQueueScript(rand.New(rand.NewSource(seed)), useLanes)
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

// TestQueueEquivalenceFuzz is the randomized lane equivalence guard: for
// many seeded random schedule/cancel/reschedule/timer scripts, the engine
// without lanes is the reference, and the same script with its
// non-cancellable events sent through lanes must dispatch the identical
// (at, seq) sequence, stop each Run(until) phase with the same number
// pending, and count the same Executed. This is the property that makes
// lanes safe to schedule through unconditionally — bit-identical results
// follow from identical dispatch order.
func TestQueueEquivalenceFuzz(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		want := runQueueScript(t, seed, false).log
		if len(want) < 300 {
			t.Fatalf("seed %d: script fired only %d events — not exercising the queue", seed, len(want))
		}
		s := runQueueScript(t, seed, true)
		if d := diffFirings(want, s.log); d != "" {
			t.Fatalf("seed %d, lanes: %s", seed, d)
		}
		if s.accepted < 500 || s.fellBack < 100 || s.heldAtStop == 0 {
			t.Fatalf("seed %d: %d lane appends accepted, %d fell back, %d held across a Run(until) stop — not exercising all three",
				seed, s.accepted, s.fellBack, s.heldAtStop)
		}
	}
}
