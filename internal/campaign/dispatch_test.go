package campaign

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"adhocsim/internal/core"
	"adhocsim/internal/stats"
)

// dispatchSpec is 2 protocols × 2 pause points whose epsilon rule stops the
// DSR cells at 2 replications, FLOOD at pause 5 s at 3 and FLOOD at pause 0
// only at its cap of 5.
func dispatchSpec() Spec {
	return Spec{
		Scenario:  tinyScenario(),
		Protocols: []string{core.DSR, core.Flood},
		Axes:      []AxisSpec{{Name: "pause", Values: []float64{0, 5}}},
		MinReps:   2,
		MaxReps:   5,
		Epsilon:   map[string]float64{"pdr": 4},
	}
}

// FuzzUnitDispatch drives a campaign with arbitrary scripts of NextUnit,
// Release and CompleteUnitEncoded calls — duplicates, out-of-order
// replications, releases of units that landed or were never handed out —
// then drains it. No landed unit and no unit of a stopped cell is handed
// out, a unit is handed out again only after a release, every released
// unit still needed comes back before NextUnit runs dry, a duplicate learns
// the first result, each landed unit and no duplicate reaches OnProgress,
// "stopped its cell" fires at most once per cell, "over" holds exactly
// when every cell has stopped, and the drained Result is campaign.Run's.
func FuzzUnitDispatch(f *testing.F) {
	spec := dispatchSpec()
	want, err := Run(context.Background(), spec, Options{})
	if err != nil {
		f.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		f.Fatal(err)
	}
	type unitID struct{ cell, rep int }
	cells, reps := len(plan.Cells), plan.Spec.MaxReps
	results := make(map[unitID]stats.Results, cells*reps)
	for ci := 0; ci < cells; ci++ {
		for rep := 0; rep < reps; rep++ {
			if results[unitID{ci, rep}], err = plan.ExecuteUnit(context.Background(), ci, rep); err != nil {
				f.Fatal(err)
			}
		}
	}

	// A script is byte pairs (op, target). op%3 selects NextUnit, complete
	// or release; a target with its top bit set picks a handed-out unit,
	// else unit target%20 in (cell, rep) order.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0x80, 2, 0x80, 0, 0, 0, 0})
	f.Add([]byte{1, 19, 1, 3, 1, 3, 2, 3, 0, 0, 2, 0x80, 2, 0x80, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0x81, 2, 0x82, 1, 0x80, 0, 0, 1, 4, 1, 9})
	f.Add([]byte{1, 0, 1, 5, 1, 10, 1, 15, 1, 1, 1, 6, 0, 0, 2, 1, 2, 0x80})

	f.Fuzz(func(t *testing.T, script []byte) {
		var last *Progress // the latest OnProgress call; nil after a duplicate
		c, err := New(spec, Options{OnProgress: func(p Progress) { last = &p }})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		var (
			handed   = map[unitID]bool{} // ever handed out
			out      = map[unitID]bool{} // handed out, not released, not landed
			awaiting = map[unitID]bool{} // released while still needed
			landed   = map[unitID]bool{}
			stopped  = make([]bool, cells)
			nStopped int
		)
		next := func() bool {
			ci, rep, ok := c.NextUnit()
			if !ok {
				if len(awaiting) > 0 {
					t.Fatalf("NextUnit ran dry with released units %v still needed", awaiting)
				}
				return false
			}
			u := unitID{ci, rep}
			switch {
			case landed[u]:
				t.Fatalf("handed out %v after it landed", u)
			case stopped[ci]:
				t.Fatalf("handed out %v of a stopped cell", u)
			case handed[u] && !awaiting[u]:
				t.Fatalf("handed out %v again without a release", u)
			}
			handed[u], out[u] = true, true
			delete(awaiting, u)
			return true
		}
		complete := func(u unitID) {
			last = nil
			got := c.CompleteUnitEncoded(u.cell, u.rep, results[u], nil)
			if landed[u] {
				if got.Landed || got.Winner == nil || !reflect.DeepEqual(*got.Winner, results[u]) || last != nil {
					t.Fatalf("duplicate of %v: landed %v, winner %v, progress %+v", u, got.Landed, got.Winner != nil, last)
				}
				return
			}
			if !got.Landed || last == nil || last.Cell != u.cell || last.Rep != u.rep || !reflect.DeepEqual(*last.Results, results[u]) {
				t.Fatalf("first result for %v: %+v, progress %+v", u, got, last)
			}
			landed[u] = true
			delete(out, u)
			delete(awaiting, u)
			if last.Stopped {
				if stopped[u.cell] {
					t.Fatalf("cell %d stopped twice", u.cell)
				}
				stopped[u.cell] = true
				nStopped++
				for a := range awaiting {
					if a.cell == u.cell {
						delete(awaiting, a)
					}
				}
			}
			if got.Over != (nStopped == cells) || last.CellsStopped != nStopped || last.RunsDone != len(landed) {
				t.Fatalf("after %v: over %v, snapshot %+v, %d of %d cells stopped, %d landed",
					u, got.Over, last.Snapshot, nStopped, cells, len(landed))
			}
		}
		pick := func(target byte) unitID {
			if target&0x80 != 0 && len(out) > 0 {
				held := make([]unitID, 0, len(out))
				for u := range out {
					held = append(held, u)
				}
				sort.Slice(held, func(i, j int) bool {
					return held[i].cell < held[j].cell || held[i].cell == held[j].cell && held[i].rep < held[j].rep
				})
				return held[int(target&0x7f)%len(held)]
			}
			i := int(target&0x7f) % (cells * reps)
			return unitID{i / reps, i % reps}
		}

		for i := 0; i+1 < len(script); i += 2 {
			switch script[i] % 3 {
			case 0:
				next()
			case 1:
				complete(pick(script[i+1]))
			case 2:
				u := pick(script[i+1])
				c.Release(u.cell, u.rep)
				if out[u] && !stopped[u.cell] {
					delete(out, u)
					awaiting[u] = true
				}
			}
		}
		// Drain: run whatever NextUnit hands out, then finish the units
		// still held, until neither is left.
		for {
			for next() {
			}
			if len(out) == 0 {
				break
			}
			complete(pick(0x80))
		}
		if nStopped != cells {
			t.Fatalf("drained with %d of %d cells stopped", nStopped, cells)
		}
		got, err := c.Finish(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the drained Result differs from campaign.Run's")
		}
	})
}

// TestNoUnitBeforeStart: until Start has opened and replayed the journal, a
// campaign hands out no unit and lands no completion, so no unit can land
// without its journal line.
func TestNoUnitBeforeStart(t *testing.T) {
	c, err := New(dispatchSpec(), Options{JournalPath: filepath.Join(t.TempDir(), "j.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if ci, rep, ok := c.NextUnit(); ok {
		t.Fatalf("NextUnit handed out unit (%d, %d) before Start", ci, rep)
	}
	if out := c.CompleteUnitEncoded(0, 0, stats.Results{}, nil); out.Landed {
		t.Fatal("a completion landed before Start")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseJournal()
	if ci, rep, ok := c.NextUnit(); !ok || ci != 0 || rep != 0 {
		t.Fatalf("first unit after Start = (%d, %d, %v), want (0, 0, true)", ci, rep, ok)
	}
}
