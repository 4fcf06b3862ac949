package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestLaneDispatchOrderAndFallback(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var got []int
	note := func(i int) EventFunc { return func() { got = append(got, i) } }
	l.Schedule(At(2), note(0)) // accepted: lane empty
	e.Schedule(At(2), note(1)) // queue, same timestamp, later seq
	l.Schedule(At(1), note(2)) // before the tail: falls back to the queue
	l.Schedule(At(2), note(3)) // ties the tail: accepted
	l.Schedule(At(3), note(4))
	if l.Len() != 3 || e.Len() != 5 {
		t.Fatalf("lane holds %d, engine %d pending; want 3 and 5", l.Len(), e.Len())
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 0, 1, 3, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if e.Executed != 5 || e.Len() != 0 {
		t.Fatalf("Executed %d, Len %d after drain", e.Executed, e.Len())
	}
}

func TestLaneSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	e.Schedule(At(5), func() {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lane schedule before Now did not panic")
		}
	}()
	l.Schedule(At(1), func() {})
}

// TestLaneLenCountsEverywhere: Engine.Len is the number of pending events
// wherever they are held — the queue, each lane, and lane appends that fell
// back — at every point of a phased run.
func TestLaneLenCountsEverywhere(t *testing.T) {
	e := NewEngine()
	a, b := e.NewLane(), e.NewLane()
	for i := 1; i <= 10; i++ {
		e.Schedule(At(float64(i)), func() {})
		a.Schedule(At(float64(i)), func() {})
		b.Schedule(At(float64(11-i)), func() {}) // descending: 9 fall back
	}
	if a.Len() != 10 || b.Len() != 1 || e.Len() != 30 {
		t.Fatalf("lanes hold %d and %d, engine %d; want 10, 1, 30", a.Len(), b.Len(), e.Len())
	}
	if err := e.Run(At(4)); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 18 || e.Executed != 12 {
		t.Fatalf("%d pending, %d executed after Run(4); want 18, 12", e.Len(), e.Executed)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 || a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("%d pending after drain", e.Len())
	}
}

// TestLaneBoundedAndUnpinned: a lane that never fully drains must not grow
// with the number of events that passed through it, and the slots of
// dispatched events must not keep their closures (and so their payloads)
// reachable.
func TestLaneBoundedAndUnpinned(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	const standing, total = 40, 1_000_000
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+l.Len() < total {
			l.Schedule(e.Now().Add(standing*Microsecond), tick)
		}
	}
	for i := 1; i <= standing; i++ {
		l.Schedule(Time(i)*Time(Microsecond), tick)
	}
	e.Interrupt = func() error {
		if l.Len() == 0 {
			return errors.New("lane drained mid-run")
		}
		return nil
	}
	if err := e.Run(Time(total-standing) * Time(Microsecond)); err != nil {
		t.Fatal(err)
	}
	if fired < total-2*standing || l.Len() == 0 {
		t.Fatalf("fired %d events with %d pending — the run did not keep the lane occupied", fired, l.Len())
	}
	if len(l.buf) != minLaneCap {
		t.Fatalf("ring grew to %d slots holding %d standing events (first allocation is %d)", len(l.buf), standing, minLaneCap)
	}
	live := 0
	for i, ent := range l.buf {
		pending := (i-l.head)&(len(l.buf)-1) < l.n
		if pending {
			live++
		} else if ent.fn != nil {
			t.Fatalf("slot %d still references its dispatched event's function", i)
		}
	}
	if live != l.Len() {
		t.Fatalf("%d live slots, lane reports %d pending", live, l.Len())
	}
}

func TestLaneGrowKeepsOrder(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var got []int
	// Wrap the ring first, so that growing has to unroll a split run.
	for i := 0; i < minLaneCap-8; i++ {
		l.Schedule(Time(i), func() {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	const n = 5 * minLaneCap
	for i := 0; i < n; i++ {
		i := i
		l.Schedule(At(1)+Time(i), func() { got = append(got, i) })
	}
	if l.Len() != n {
		t.Fatalf("lane holds %d of %d monotone appends", l.Len(), n)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("order broken at %d: %v", i, got[i])
		}
	}
	if len(got) != n {
		t.Fatalf("fired %d of %d", len(got), n)
	}
}

// TestLaneRunGuards: Limit, the Interrupt period and Stop act on the global
// dispatch count and order, so where the crossing event was held — queue,
// lane, or alternating — must not show in the outcome.
func TestLaneRunGuards(t *testing.T) {
	// Enough events that the interrupt poll comes round once.
	const events = interruptEvery + 10
	type outcome struct {
		err             string
		fired, pending  int
		executed        uint64
		now             Time
		firedAfterGuard int
	}
	stop := errors.New("interrupted")
	guards := map[string]func(e *Engine, fired *int){
		"limit": func(e *Engine, _ *int) { e.Limit = 5 },
		"interrupt": func(e *Engine, fired *int) {
			e.Interrupt = func() error {
				if *fired >= 6 {
					return stop
				}
				return nil
			}
		},
		"stop": nil, // the third event calls Stop
	}
	holders := []string{"queue", "lane", "alternate"}
	for name, guard := range guards {
		var want outcome
		for hi, holder := range holders {
			e := NewEngine()
			l := e.NewLane()
			fired := 0
			if guard != nil {
				guard(e, &fired)
			}
			for i := 1; i <= events; i++ {
				fn := func() {
					fired++
					if name == "stop" && fired == 3 {
						e.Stop()
					}
				}
				if holder == "lane" || (holder == "alternate" && i%2 == 0) {
					l.Schedule(At(float64(i)), fn)
				} else {
					e.Schedule(At(float64(i)), fn)
				}
			}
			err := e.RunAll()
			got := outcome{fired: fired, pending: e.Len(), executed: e.Executed, now: e.Now()}
			if err != nil {
				got.err = err.Error()
			}
			// Whatever is left must still run, in order, afterwards.
			e.Limit, e.Interrupt = 0, nil
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			got.firedAfterGuard = fired
			if hi == 0 {
				want = got
				if want.pending == 0 || want.fired == events {
					t.Fatalf("%s: guard never tripped: %+v", name, want)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s, events held by %s:\n got %+v\nwant %+v", name, holder, got, want)
			}
		}
	}
}

// byteSource feeds a queue script from fuzz input. Once the bytes run out
// every draw is the largest value, which selects the script's no-op action.
type byteSource struct{ data []byte }

func (b *byteSource) Intn(n int) int {
	if len(b.data) == 0 {
		return n - 1
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v % n
}

func (b *byteSource) Int63n(n int64) int64 {
	if len(b.data) < 2 {
		return n - 1
	}
	v := int64(b.data[0])<<8 | int64(b.data[1])
	b.data = b.data[2:]
	return v * n >> 16
}

// FuzzLaneDispatchOrder is TestQueueEquivalenceFuzz with the decision
// stream in the fuzzer's hands: whatever interleaving of schedules, cancels,
// timer resets, monotone and out-of-order lane appends and tied batches the
// bytes encode, the engine with lanes must fire exactly the log the
// lane-free engine fires.
func FuzzLaneDispatchOrder(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := newQueueScript(&byteSource{data: data}, false).run(t)
		got := newQueueScript(&byteSource{data: data}, true).run(t)
		if d := diffFirings(want, got); d != "" {
			t.Fatalf("with lanes: %s", d)
		}
	})
}

// BenchmarkEngineLaneRun is the PHY's event shape — 40 interleaved chains,
// each firing rescheduling itself a fixed lag ahead, so keys arrive already
// sorted — through a lane and, for reference, through the queue.
func BenchmarkEngineLaneRun(b *testing.B) {
	const chains = 40
	for _, through := range []string{"lane", "queue"} {
		b.Run(through, func(b *testing.B) {
			e := NewEngine()
			l := e.NewLane()
			issued := 0
			var next func()
			schedule := func(at Time) {
				issued++
				if through == "lane" {
					l.Schedule(at, next)
				} else {
					e.Schedule(at, next)
				}
			}
			next = func() {
				if issued < b.N {
					schedule(e.Now().Add(chains * Microsecond))
				}
			}
			for i := 1; i <= chains && issued < b.N; i++ {
				schedule(Time(i) * Time(Microsecond))
			}
			b.ResetTimer()
			if err := e.RunAll(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
