package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func compareEntries(a, b heapEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// FuzzEventHeap runs push / popMin / remove(ev.idx) scripts on the bare heap
// against a sorted-slice reference. Every pop must return the reference
// minimum by (at, seq); after every step each queued event's idx must be
// its slot, and each popped or removed event's idx must be -1. Timestamps
// come from a narrow range, so most comparisons are decided by seq.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h eventHeap
		var ref []heapEntry // ascending by (at, seq)
		var gone []*event
		var seq uint64
		check := func(step int) {
			t.Helper()
			if len(h) != len(ref) {
				t.Fatalf("step %d: heap holds %d events, reference %d", step, len(h), len(ref))
			}
			for i, x := range h {
				if x.ev.idx != i {
					t.Fatalf("step %d: event in slot %d has idx %d", step, i, x.ev.idx)
				}
			}
			for _, x := range ref {
				if i := x.ev.idx; i < 0 || i >= len(h) || h[i] != x {
					t.Fatalf("step %d: queued event %+v is not in its slot %d", step, x, i)
				}
			}
			for _, ev := range gone {
				if ev.idx != -1 {
					t.Fatalf("step %d: a popped or removed event has idx %d", step, ev.idx)
				}
			}
		}
		pop := func(step int) {
			t.Helper()
			want := ref[0]
			if ev := h.popMin(); ev != want.ev {
				t.Fatalf("step %d: popMin did not return the minimum (%v, %d)", step, want.at, want.seq)
			}
			ref = ref[1:]
			gone = append(gone, want.ev)
		}
		step := 0
		for ; len(data) >= 2; step++ {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 5 {
			case 0, 1, 2:
				seq++
				x := heapEntry{at: Time(arg % 16), seq: seq, ev: &event{}}
				h.push(x.at, x.seq, x.ev)
				k, _ := slices.BinarySearchFunc(ref, x, compareEntries)
				ref = slices.Insert(ref, k, x)
			case 3:
				if len(ref) > 0 {
					pop(step)
				}
			case 4:
				if len(ref) > 0 {
					k := int(arg) % len(ref)
					ev := ref[k].ev
					h.remove(ev.idx)
					ref = slices.Delete(ref, k, k+1)
					gone = append(gone, ev)
				}
			}
			check(step)
		}
		for ; len(ref) > 0; step++ {
			pop(step)
			check(step)
		}
	})
}

// TestEngineFreeListCapped: recycling must stop growing the free list at
// maxFreeEvents, so a burst's peak event population is not pinned in memory
// for the rest of the run.
func TestEngineFreeListCapped(t *testing.T) {
	e := NewEngine()
	n := maxFreeEvents + 5000
	for i := 0; i < n; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(e.free) != maxFreeEvents {
		t.Fatalf("free list holds %d events after an over-cap burst, want exactly %d", len(e.free), maxFreeEvents)
	}
}

// BenchmarkQueueHold is the classic hold model — every dispatched event
// schedules its successor an exponential delay ahead, so the queue stays at
// one depth — from the paper regime's depths to a city run's.
func BenchmarkQueueHold(b *testing.B) {
	for _, depth := range []struct {
		name string
		n    int
	}{{"3", 3}, {"50", 50}, {"200", 200}, {"500", 500}, {"1k", 1000}, {"10k", 10000}} {
		b.Run(depth.name, func(b *testing.B) {
			e := NewEngine()
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
