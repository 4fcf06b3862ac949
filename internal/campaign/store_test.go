package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"adhocsim/internal/core"
	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// mapStore is an in-memory Store that logs the keys loaded and saved.
type mapStore struct {
	mu           sync.Mutex
	m            map[string]stats.Results
	loads, saves []string
}

func newMapStore() *mapStore { return &mapStore{m: map[string]stats.Results{}} }

func (s *mapStore) Load(key string, _ metrics.Geometry) (stats.Results, []byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads = append(s.loads, key)
	res, ok := s.m[key]
	return res, nil, ok, nil
}

func (s *mapStore) Save(key string, res stats.Results, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = append(s.saves, key)
	s.m[key] = res
	return nil
}

// cellKeys returns the keys of lg that are no unit key of plan: the fold
// entries' keys.
func cellKeys(plan *Plan, lg []string) []string {
	units := map[string]bool{}
	for ci := range plan.Cells {
		for rep := range plan.Spec.MaxReps {
			units[plan.UnitKey(ci, rep)] = true
		}
	}
	var out []string
	for _, k := range lg {
		if !units[k] {
			out = append(out, k)
		}
	}
	return out
}

func (s *mapStore) cellLog(plan *Plan) (loads, saves []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loads, saves = cellKeys(plan, s.loads), cellKeys(plan, s.saves)
	s.loads, s.saves = nil, nil
	return loads, saves
}

// storeSpec is two cells of three replications.
func storeSpec() Spec {
	return Spec{Scenario: tinyScenario(), Protocols: []string{core.DSR, core.AODV}, MaxReps: 3}
}

// settleWith runs spec as a coordinator does: NextUnit serves every unit
// store holds, and each one it hands out is executed and landed live,
// which saves it under its unit key.
func settleWith(t *testing.T, spec Spec, store *mapStore) *Result {
	t.Helper()
	c, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(store)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for {
		ci, rep, ok := c.NextUnit()
		if !ok {
			break
		}
		res, err := c.Plan().ExecuteUnit(context.Background(), ci, rep)
		if err != nil {
			t.Fatal(err)
		}
		c.CompleteUnitEncoded(ci, rep, res, nil)
	}
	res, err := c.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFoldEntryHitMatchesFold: a campaign whose units all run live saves
// one fold entry per cell and reads none; a resubmission served wholly
// from the store reads every cell's entry and saves none, and its Result
// is DeepEqual to the live one and to an in-process Run. The served
// Result's series and maps are its own: changing them changes neither the
// entries nor the next hit.
func TestFoldEntryHitMatchesFold(t *testing.T) {
	spec := storeSpec()
	ref, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	live := settleWith(t, spec, store)
	if loads, saves := store.cellLog(plan); len(loads) != 0 || len(saves) != len(plan.Cells) {
		t.Fatalf("live campaign: %d fold loads and %d saves, want 0 and %d", len(loads), len(saves), len(plan.Cells))
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatal("live campaign with a store differs from in-process Run")
	}
	vandalise(live) // the entries it saved must not see this
	for round := range 2 {
		served := settleWith(t, spec, store)
		loads, saves := store.cellLog(plan)
		if len(loads) != len(plan.Cells) || len(saves) != 0 {
			t.Fatalf("round %d: %d fold loads and %d saves, want %d and 0", round, len(loads), len(saves), len(plan.Cells))
		}
		if !reflect.DeepEqual(served, ref) {
			t.Fatalf("round %d: Result from fold entries differs from in-process Run", round)
		}
		vandalise(served)
	}
}

// vandalise changes every series, map and percentile set of r in place.
func vandalise(r *Result) {
	for i := range r.Cells {
		cell := &r.Cells[i]
		cell.Series.Counts["delay"][0] += 1000
		cell.Merged.RoutingByType["vandal"] = 1
		cell.Merged.Drops[stats.DropTTL] += 1000
		cell.Merged.HopExcess[99] = 1
		cell.Quantiles["delay"] = metrics.QuantileSummary{}
	}
}

// TestFoldEntryOnlyForStoredReps: a cell reads its fold entry only when
// every committed replication was served from the store, and saves it only
// when every one is in the store. A result handed straight to CompleteUnit
// or replayed from the journal is in no store, so its cell neither reads
// nor saves one; a cell of served and live results saves and does not read.
func TestFoldEntryOnlyForStoredReps(t *testing.T) {
	spec := storeSpec()
	ref, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	settleWith(t, spec, store)
	store.cellLog(plan)

	t.Run("CompleteUnit", func(t *testing.T) {
		c, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.SetStore(store)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		// NextUnit would serve the units from the store: complete them
		// without it, in dispatch order.
		for rep := range plan.Spec.MaxReps {
			for ci := range plan.Cells {
				res, _, _, _ := store.Load(plan.UnitKey(ci, rep), plan.SeriesGeometry(ci))
				c.CompleteUnit(ci, rep, res, true)
			}
		}
		got, err := c.Finish(context.Background())
		if err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("Finish = %v; or the Result differs from in-process Run", err)
		}
		if loads, saves := store.cellLog(plan); len(loads)+len(saves) != 0 {
			t.Fatalf("%d fold loads and %d saves, want none", len(loads), len(saves))
		}
	})

	t.Run("journal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if _, err := Run(context.Background(), spec, Options{JournalPath: path}); err != nil {
			t.Fatal(err)
		}
		// Every unit replays from the journal; the store is never asked.
		c, err := New(spec, Options{JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		c.SetStore(store)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		got, err := c.Finish(context.Background())
		if err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("Finish = %v; or the Result differs from in-process Run", err)
		}
		if loads, saves := store.cellLog(plan); len(loads)+len(saves) != 0 {
			t.Fatalf("%d fold loads and %d saves, want none", len(loads), len(saves))
		}
	})

	t.Run("served and live", func(t *testing.T) {
		// Replication 1 of every cell runs live; the others are served.
		for ci := range plan.Cells {
			delete(store.m, plan.UnitKey(ci, 1))
		}
		got := settleWith(t, spec, store)
		if !reflect.DeepEqual(got, ref) {
			t.Fatal("Result differs from in-process Run")
		}
		if loads, saves := store.cellLog(plan); len(loads) != 0 || len(saves) != len(plan.Cells) {
			t.Fatalf("%d fold loads and %d saves, want 0 and %d", len(loads), len(saves), len(plan.Cells))
		}
	})
}

// TestNextUnitServesStoredUnits: with a store, NextUnit lands every unit
// the store holds and hands out only the one it lacks. Each served unit
// counts in RunsFromCache, and its journal line is on disk when NextUnit
// returns. Settle reads the fold entry of the cell it served wholly.
func TestNextUnitServesStoredUnits(t *testing.T) {
	spec := storeSpec()
	ref, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	settleWith(t, spec, store)
	store.cellLog(plan)
	delete(store.m, plan.UnitKey(1, 2)) // the last unit in dispatch order

	path := filepath.Join(t.TempDir(), "j.jsonl")
	c, err := New(spec, Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(store)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	served := plan.MaxRuns() - 1
	if ci, rep, ok := c.NextUnit(); !ok || ci != 1 || rep != 2 {
		t.Fatalf("NextUnit = (%d, %d, %v), want (1, 2, true), the one unit the store lacks", ci, rep, ok)
	}
	if n := c.Snapshot().RunsFromCache; n != served {
		t.Fatalf("%d runs from cache, want %d", n, served)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte{'\n'}); n != 1+served {
		t.Fatalf("the journal holds %d lines when NextUnit returns, want the header and %d", n, served)
	}
	res, err := plan.ExecuteUnit(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.CompleteUnit(1, 2, res, false)
	if ci, rep, ok := c.NextUnit(); ok {
		t.Fatalf("NextUnit handed out (%d, %d) after every unit landed", ci, rep)
	}
	got, err := c.Finish(context.Background())
	if err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("Finish = %v; or the Result differs from in-process Run", err)
	}
	// Cell 1 holds a Go caller's result, so only cell 0 reads an entry.
	loads, saves := store.cellLog(plan)
	if len(loads) != 1 || len(saves) != 0 {
		t.Fatalf("%d fold loads and %d saves, want 1 and 0", len(loads), len(saves))
	}
	if _, found := store.m[loads[0]]; !found {
		t.Fatal("settle missed the served cell's fold entry")
	}
}
