package campaign

import (
	"context"
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

// settleWith runs spec as a coordinator does: every unit is served from
// store under its unit key when serve says so, and otherwise executed,
// landed with its key and saved under it.
func settleWith(t *testing.T, spec Spec, store *mapStore, serve func(ci, rep int) bool) *Result {
	t.Helper()
	c, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(store)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	plan := c.Plan()
	for {
		ci, rep, ok := c.NextUnit()
		if !ok {
			break
		}
		key := plan.UnitKey(ci, rep)
		if serve(ci, rep) {
			res, enc, found, _ := store.Load(key, plan.SeriesGeometry(ci))
			if !found {
				t.Fatalf("unit (%d, %d) is not in the store", ci, rep)
			}
			c.CompleteUnitEncoded(ci, rep, res, enc, key, true)
			continue
		}
		res, err := plan.ExecuteUnit(context.Background(), ci, rep)
		if err != nil {
			t.Fatal(err)
		}
		if out := c.CompleteUnitEncoded(ci, rep, res, nil, key, false); out.Landed {
			store.Save(key, res, out.Enc)
		}
	}
	res, err := c.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func always(int, int) bool { return true }
func never(int, int) bool  { return false }

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
	live := settleWith(t, spec, store, never)
	if loads, saves := store.cellLog(plan); len(loads) != 0 || len(saves) != len(plan.Cells) {
		t.Fatalf("live campaign: %d fold loads and %d saves, want 0 and %d", len(loads), len(saves), len(plan.Cells))
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatal("live campaign with a store differs from in-process Run")
	}
	vandalise(live) // the entries it saved must not see this
	for round := range 2 {
		served := settleWith(t, spec, store, always)
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
	settleWith(t, spec, store, never)
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
		for {
			ci, rep, ok := c.NextUnit()
			if !ok {
				break
			}
			res, _, _, _ := store.Load(plan.UnitKey(ci, rep), plan.SeriesGeometry(ci))
			c.CompleteUnit(ci, rep, res, true)
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
		got := settleWith(t, spec, store, func(_, rep int) bool { return rep != 1 })
		if !reflect.DeepEqual(got, ref) {
			t.Fatal("Result differs from in-process Run")
		}
		if loads, saves := store.cellLog(plan); len(loads) != 0 || len(saves) != len(plan.Cells) {
			t.Fatalf("%d fold loads and %d saves, want 0 and %d", len(loads), len(saves), len(plan.Cells))
		}
	})
}
