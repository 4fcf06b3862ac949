package sim

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(At(3), func() { got = append(got, 3) })
	e.Schedule(At(1), func() { got = append(got, 1) })
	e.Schedule(At(2), func() { got = append(got, 2) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != At(3) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
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
}

func TestSchedulingFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var fired bool
	e.Schedule(At(1), func() {
		e.ScheduleIn(Seconds(1), func() { fired = true })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if e.Now() != At(2) {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	var late bool
	e.Schedule(At(1), func() {})
	e.Schedule(At(5), func() { late = true })
	if err := e.Run(At(2)); err != nil {
		t.Fatal(err)
	}
	if late {
		t.Fatal("event after horizon fired")
	}
	if e.Now() != At(2) {
		t.Fatalf("Now = %v, want clamped to horizon 2s", e.Now())
	}
	if e.Len() != 1 {
		t.Fatalf("pending = %d, want 1", e.Len())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	var fired bool
	h := e.Schedule(At(1), func() { fired = true })
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var handles []Handle
	for i := 0; i < 5; i++ {
		i := i
		handles = append(handles, e.Schedule(At(float64(i+1)), func() { got = append(got, i) }))
	}
	e.Cancel(handles[2])
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
	for _, v := range got {
		if v == 2 {
			t.Fatal("cancelled event fired")
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(At(5), func() {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(At(1), func() {})
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(At(float64(i)), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 10
	var tick func()
	tick = func() { e.ScheduleIn(Second, tick) }
	e.ScheduleIn(Second, tick)
	if err := e.RunAll(); err == nil {
		t.Fatal("runaway loop not caught by Limit")
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	if tm.Pending() || tm.Stop() {
		t.Fatal("a timer never armed reads pending")
	}
	tm.Reset(Seconds(1))
	tm.Reset(Seconds(2)) // supersedes first arming
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Reset must cancel prior arming)", fired)
	}
	if e.Now() != At(2) {
		t.Fatalf("fired at %v, want 2s", e.Now())
	}
	if tm.Pending() || tm.Stop() {
		t.Fatal("a fired timer still reads pending")
	}
	tm.Reset(Seconds(1))
	if !tm.Pending() {
		t.Fatal("Pending = false after Reset")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false for armed timer")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	if tm.Pending() || tm.Stop() {
		t.Fatal("a stopped timer still reads pending")
	}

	// The engine handle is the timer's only state, so inside its own
	// callback the timer reads stopped, and a Reset from there re-arms it.
	var fires []Time
	tm = NewTimer(e, func() {
		if tm.Pending() {
			t.Fatalf("Pending = true inside the callback at %v", e.Now())
		}
		if tm.Stop() {
			t.Fatalf("Stop = true inside the callback at %v", e.Now())
		}
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			tm.Reset(Seconds(1))
			if !tm.Pending() {
				t.Fatal("Pending = false after a Reset inside the callback")
			}
		}
	})
	start := e.Now()
	tm.Reset(Seconds(1))
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{start.Add(Seconds(1)), start.Add(Seconds(2)), start.Add(Seconds(3))}; !slices.Equal(fires, want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	if tm.Pending() {
		t.Fatal("Pending = true after the last firing")
	}

	// A timer is one object: no wrapper closure beside it.
	fn := func() {}
	var kept *Timer
	if n := testing.AllocsPerRun(100, func() { kept = NewTimer(e, fn) }); n != 1 || kept == nil {
		t.Fatalf("NewTimer made %.0f objects, want 1", n)
	}
}

func TestTickerPeriodic(t *testing.T) {
	e := NewEngine()
	var times []Time
	tk := NewTicker(e, Seconds(2), func() { times = append(times, e.Now()) })
	tk.Start()
	if err := e.Run(At(7)); err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	if len(times) != 3 {
		t.Fatalf("ticks = %d, want 3 (at 2,4,6)", len(times))
	}
	for i, want := range []Time{At(2), At(4), At(6)} {
		if times[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestTickerStopFromWithinTick(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	if err := e.Run(At(10)); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Intn(1000) == c.Intn(1000) {
			same++
		}
	}
	if same > 50 {
		t.Fatal("different seeds look correlated")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork(1)
	g2 := NewRNG(7)
	f1b := g2.Fork(1)
	for i := 0; i < 50; i++ {
		if f1.Float64() != f1b.Float64() {
			t.Fatal("fork with same lineage diverged")
		}
	}
	// Forks with different ids should differ somewhere early.
	x, y := NewRNG(7).Fork(1), NewRNG(7).Fork(2)
	diff := false
	for i := 0; i < 10; i++ {
		if x.Float64() != y.Float64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("forks with different ids identical")
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(1)
	f := func(lo, hi uint8) bool {
		a, b := float64(lo), float64(lo)+float64(hi)+1
		v := g.Uniform(a, b)
		return v >= a && v < b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDurationUniform(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		d := g.DurationUniform(5*Millisecond, 10*Millisecond)
		if d < 5*Millisecond || d >= 10*Millisecond {
			t.Fatalf("DurationUniform out of range: %v", d)
		}
	}
	if g.DurationUniform(Second, Second) != Second {
		t.Fatal("degenerate range should return lo")
	}
	if g.Jitter(0) != 0 {
		t.Fatal("Jitter(0) should be 0")
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != Duration(1500000000) {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if At(2).Add(Seconds(0.5)) != At(2.5) {
		t.Fatal("Add mismatch")
	}
	if At(3).Sub(At(1)) != Seconds(2) {
		t.Fatal("Sub mismatch")
	}
	if s := At(1.25).String(); s != "1.250000s" {
		t.Fatalf("String = %q", s)
	}
	if Never.String() != "never" {
		t.Fatal("Never.String mismatch")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			e.ScheduleIn(Microsecond, next)
		}
	}
	e.ScheduleIn(Microsecond, next)
	b.ResetTimer()
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

func TestEngineInterrupt(t *testing.T) {
	e := NewEngine()
	stop := errors.New("stop now")
	var fired int
	e.Interrupt = func() error {
		if fired >= interruptEvery+25 {
			return stop
		}
		return nil
	}
	var next func()
	next = func() {
		fired++
		e.ScheduleIn(Microsecond, next)
	}
	e.ScheduleIn(Microsecond, next)
	err := e.RunAll()
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want interrupt error", err)
	}
	// The abort lands within one poll period of the trigger point.
	if fired < interruptEvery+25 || fired > 2*interruptEvery {
		t.Fatalf("fired %d events before interrupt took effect", fired)
	}
}

func TestEngineInterruptNilNeverPolled(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.ScheduleIn(Microsecond, func() {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Executed != 100 {
		t.Fatalf("executed %d", e.Executed)
	}
}

func TestEngineEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	// Sequential schedule/fire cycles must reuse the same pooled struct
	// instead of allocating one event per cycle.
	for i := 0; i < 1000; i++ {
		e.ScheduleIn(Microsecond, func() {})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.free); n != 1 {
		t.Fatalf("free list holds %d events after sequential cycles, want 1", n)
	}
}

func TestEngineStaleHandleRejected(t *testing.T) {
	e := NewEngine()
	var fired int
	h := e.ScheduleIn(Microsecond, func() { fired++ })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d", fired)
	}
	// The handle's event struct has been recycled; cancelling must be a
	// no-op even after the struct is reused by a new event.
	h2 := e.ScheduleIn(Microsecond, func() { fired++ })
	if e.Cancel(h) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("recycled event did not fire (fired=%d)", fired)
	}
	if e.Cancel(h2) {
		t.Fatal("cancel after firing reported true")
	}
	var zero Handle
	if e.Cancel(zero) {
		t.Fatal("zero handle cancelled something")
	}
}

func TestEngineCancelSelfDuringDispatch(t *testing.T) {
	e := NewEngine()
	var h Handle
	h = e.ScheduleIn(Microsecond, func() {
		if e.Cancel(h) {
			t.Fatal("event cancelled itself mid-dispatch")
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDispatchOrderWithPooling(t *testing.T) {
	// Heavy interleaved schedule/cancel traffic must still dispatch in
	// exact (time, seq) order — the determinism contract of the 4-ary
	// heap + pool.
	e := NewEngine()
	var got []int
	var handles []Handle
	for i := 0; i < 200; i++ {
		i := i
		at := Time((i * 7919) % 100).Add(Duration(i))
		handles = append(handles, e.Schedule(at, func() { got = append(got, i) }))
	}
	for i := 0; i < 200; i += 3 {
		e.Cancel(handles[i])
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Expect the surviving events sorted by (at, seq): seq increases with
	// i, so equal timestamps keep ascending i.
	var want []int
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			continue
		}
		want = append(want, i)
	}
	sortStable(want, func(a, b int) bool {
		ta := Time((a * 7919) % 100).Add(Duration(a))
		tb := Time((b * 7919) % 100).Add(Duration(b))
		if ta != tb {
			return ta < tb
		}
		return a < b
	})
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverged at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// sortStable is a tiny stable insertion sort for the test above.
func sortStable(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && less(v, xs[j]) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
