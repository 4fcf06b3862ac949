package dist

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// loggingStore passes through to a Store and logs the fold entries — keys
// that are no unit key of the plans it was told of — loaded and saved.
type loggingStore struct {
	Store
	units map[string]bool

	mu                       sync.Mutex
	hitKeys, missKeys, saved []string
}

func newLoggingStore(t *testing.T, inner Store, specs ...campaign.Spec) *loggingStore {
	t.Helper()
	s := &loggingStore{Store: inner, units: map[string]bool{}}
	for _, spec := range specs {
		plan, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for ci := range plan.Cells {
			for rep := range plan.Spec.MaxReps {
				s.units[plan.UnitKey(ci, rep)] = true
			}
		}
	}
	return s
}

func (s *loggingStore) Load(key string, series metrics.Geometry) (stats.Results, []byte, bool, error) {
	res, enc, found, err := s.Store.Load(key, series)
	if !s.units[key] {
		s.mu.Lock()
		if found {
			s.hitKeys = append(s.hitKeys, key)
		} else {
			s.missKeys = append(s.missKeys, key)
		}
		s.mu.Unlock()
	}
	return res, enc, found, err
}

func (s *loggingStore) Save(key string, res stats.Results, enc []byte) error {
	if !s.units[key] {
		s.mu.Lock()
		s.saved = append(s.saved, key)
		s.mu.Unlock()
	}
	return s.Store.Save(key, res, enc)
}

// take returns and clears the fold entries loaded (hit and missed) and
// saved since the last call.
func (s *loggingStore) take() (hits, misses, saved []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits, misses, saved = s.hitKeys, s.missKeys, s.saved
	s.hitKeys, s.missKeys, s.saved = nil, nil, nil
	return hits, misses, saved
}

// pauseSpec is testSpec over a pause axis.
func pauseSpec(pauses ...float64) campaign.Spec {
	spec := testSpec()
	spec.Axes = []campaign.AxisSpec{{Name: "pause", Values: pauses}}
	return spec
}

// TestFoldEntriesServeAcrossCampaigns: a settled spec leaves one fold
// entry per cell. A second spec that adds a pause value serves the shared
// cells' units from the store, and those cells read their fold entries;
// the new cells run live, fold, and save theirs. Both Results are
// DeepEqual to in-process runs (campaign.Run, which adhocsim.RunCampaign
// is), and a third submission of the second spec reads every entry.
func TestFoldEntriesServeAcrossCampaigns(t *testing.T) {
	first, second := pauseSpec(0, 5), pauseSpec(0, 5, 10)
	store := newLoggingStore(t, NewMemStore(), first, second)

	s1, base1 := newTestServer(t, ServerOptions{LocalWorkers: 1, Cache: store})
	created := submitSpec(t, base1, first)
	waitDone(t, base1, created.ID, time.Minute)
	if got := s1.lookup(created.ID).c.Result(); !reflect.DeepEqual(got, singleProcessResult(t, first)) {
		t.Fatal("first spec's Result differs from in-process Run")
	}
	if hits, misses, saved := store.take(); len(hits)+len(misses) != 0 || len(saved) != created.Cells {
		t.Fatalf("first spec: %d fold hits, %d misses, %d saves; want 0, 0, %d", len(hits), len(misses), len(saved), created.Cells)
	}

	ref := singleProcessResult(t, second)
	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: 1, Cache: store})
	created = submitSpec(t, base2, second)
	snap := waitDone(t, base2, created.ID, time.Minute)
	shared := len(first.Protocols) * 2 // the cells at pause 0 and 5
	if want := shared * first.MaxReps; snap.RunsFromCache != want {
		t.Fatalf("second spec: %d runs from cache, want %d", snap.RunsFromCache, want)
	}
	if got := s2.lookup(created.ID).c.Result(); !reflect.DeepEqual(got, ref) {
		t.Fatal("second spec's Result differs from in-process Run")
	}
	hits, misses, saved := store.take()
	if len(hits) != shared || len(misses) != 0 || len(saved) != created.Cells-shared {
		t.Fatalf("second spec: %d fold hits, %d misses, %d saves; want %d, 0, %d",
			len(hits), len(misses), len(saved), shared, created.Cells-shared)
	}

	s3, base3 := newTestServer(t, ServerOptions{LocalWorkers: -1, Cache: store})
	created = submitSpec(t, base3, second)
	waitDone(t, base3, created.ID, 10*time.Second)
	if got := s3.lookup(created.ID).c.Result(); !reflect.DeepEqual(got, ref) {
		t.Fatal("resubmitted second spec's Result differs from in-process Run")
	}
	if hits, misses, saved := store.take(); len(hits) != created.Cells || len(misses)+len(saved) != 0 {
		t.Fatalf("resubmission: %d fold hits, %d misses, %d saves; want %d, 0, 0", len(hits), len(misses), len(saved), created.Cells)
	}
}

// TestBadFoldEntryReadsAsMiss: an FSStore fold entry that is torn, or
// whose series has another geometry than its cell's units, reads as a
// miss. The cell folds its served units to the same Result and saves a
// good entry over the bad one, which the next submission reads.
func TestBadFoldEntryReadsAsMiss(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := newLoggingStore(t, fs, spec)
	submit := func(local int) {
		t.Helper()
		s, base := newTestServer(t, ServerOptions{LocalWorkers: local, Cache: store})
		created := submitSpec(t, base, spec)
		waitDone(t, base, created.ID, time.Minute)
		if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(got, ref) {
			t.Fatal("Result differs from in-process Run")
		}
	}
	submit(1)
	_, _, entries := store.take()
	if len(entries) != len(spec.Protocols) {
		t.Fatalf("%d fold entries saved, want one per cell (%d)", len(entries), len(spec.Protocols))
	}

	for _, bad := range []struct {
		name  string
		spoil func(t *testing.T, data []byte) []byte
	}{
		{"torn", func(_ *testing.T, data []byte) []byte { return data[:len(data)/2] }},
		{"series of another geometry", func(t *testing.T, data []byte) []byte {
			var e stats.Results
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			e.Streams.Series.Counts["delay"] = e.Streams.Series.Counts["delay"][1:]
			out, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			for _, key := range entries {
				data, err := os.ReadFile(fs.path(key))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fs.path(key), bad.spoil(t, data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			submit(-1)
			if hits, misses, saved := store.take(); len(hits) != 0 || len(misses) != len(entries) || len(saved) != len(entries) {
				t.Fatalf("spoilt entries: %d fold hits, %d misses, %d saves; want 0, %d, %d",
					len(hits), len(misses), len(saved), len(entries), len(entries))
			}
			submit(-1)
			if hits, misses, saved := store.take(); len(hits) != len(entries) || len(misses)+len(saved) != 0 {
				t.Fatalf("rewritten entries: %d fold hits, %d misses, %d saves; want %d, 0, 0",
					len(hits), len(misses), len(saved), len(entries))
			}
		})
	}
}
