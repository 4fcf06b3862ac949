package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"adhocsim/internal/campaign"
)

// Journal edge cases under distribution: the JSONL checkpoint is the
// coordinator's commit log, so its failure modes (wrong spec, torn tail,
// partial coverage) must compose correctly with leases, caches and
// concurrent remote committers.

// journalPathFor computes the coordinator's journal path for a spec.
func journalPathFor(t *testing.T, dir string) string {
	t.Helper()
	plan, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, plan.Hash[:16]+".jsonl")
}

// TestJournalSpecHashMismatchRejected: a checkpoint written by a different
// spec must be rejected at submission time with 409 — not silently
// resumed into a corrupted aggregate.
func TestJournalSpecHashMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := journalPathFor(t, dir)
	header := `{"version":1,"spec_hash":"` + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef" + `","cells":2,"max_reps":2}` + "\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}

	_, base := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: dir})
	body, _ := json.Marshal(testSpec())
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusConflict, nil)

	// The poisoned journal was not truncated or overwritten by the
	// rejection: the evidence survives for the operator.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != header {
		t.Error("rejected submission modified the mismatched journal")
	}
}

// TestJournalTornTailWithConcurrentCommitters: a journal whose tail was
// torn mid-write (process death during append) is truncated to the last
// complete line on resume, and the missing runs are re-executed by
// concurrent remote workers — landing, through the in-order commit path,
// on exactly the uninterrupted result.
func TestJournalTornTailWithConcurrentCommitters(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)
	dir := t.TempDir()
	path := journalPathFor(t, dir)

	// First pass: run to completion so the journal holds every run.
	s1, base1 := newTestServer(t, ServerOptions{LocalWorkers: 2, JournalDir: dir})
	created1 := submitSpec(t, base1, spec)
	waitDone(t, base1, created1.ID, time.Minute)
	s1.Close() // release the journal flock

	// Tear the tail: keep the header and the first entry, then append a
	// prefix of the second entry with no terminating newline.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want header + 4 entries", len(lines))
	}
	torn := append([]byte{}, lines[0]...) // header
	torn = append(torn, lines[1]...)      // entry 0
	torn = append(torn, lines[2][:len(lines[2])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume with no local executors: every missing run must arrive from
	// remote workers committing concurrently over HTTP.
	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: dir})
	startWorker(t, base2, 2)
	startWorker(t, base2, 2)
	created2 := submitSpec(t, base2, spec)
	snap := waitDone(t, base2, created2.ID, time.Minute)
	if snap.RunsDone != created2.MaxRuns {
		t.Fatalf("resumed campaign committed %d of %d runs", snap.RunsDone, created2.MaxRuns)
	}
	if got := s2.lookup(created2.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("torn-tail resume result differs from uninterrupted run")
	}

	// The repaired journal ends on complete lines: header + 4 entries.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Error("journal still ends mid-line after resume")
	}
	if n := bytes.Count(data, []byte("\n")); n != 5 {
		t.Errorf("journal has %d complete lines, want 5 (header + 4 entries)", n)
	}
}

// TestResumeHalfJournalHalfCache: a campaign resumes from a journal
// holding half its runs while the result cache supplies the other half —
// the campaign completes at submission time (zero executions) and the
// aggregate still equals the uninterrupted run.
func TestResumeHalfJournalHalfCache(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)
	cache := NewMemStore()
	dir1 := t.TempDir()

	// Populate both the cache and a complete journal.
	s1, base1 := newTestServer(t, ServerOptions{LocalWorkers: 2, JournalDir: dir1, Cache: cache})
	created1 := submitSpec(t, base1, spec)
	waitDone(t, base1, created1.ID, time.Minute)
	s1.Close()
	// One entry per unit, and one fold entry per cell.
	if cache.Len() != created1.MaxRuns+created1.Cells {
		t.Fatalf("cache holds %d entries, want %d units and %d cells", cache.Len(), created1.MaxRuns, created1.Cells)
	}

	// Second journal dir: header + the first half of the entries.
	dir2 := t.TempDir()
	data, err := os.ReadFile(journalPathFor(t, dir1))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	half := append([]byte{}, lines[0]...)
	keep := (len(lines) - 1) / 2
	for _, l := range lines[1 : 1+keep] {
		half = append(half, l...)
	}
	if err := os.WriteFile(journalPathFor(t, dir2), half, 0o644); err != nil {
		t.Fatal(err)
	}

	// No local executors, no workers: the journal replays its half, the
	// cache must cover the rest at submission time.
	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: dir2, Cache: cache})
	created2 := submitSpec(t, base2, spec)
	snap := waitDone(t, base2, created2.ID, 10*time.Second)
	if snap.RunsDone != created2.MaxRuns {
		t.Fatalf("campaign committed %d of %d runs", snap.RunsDone, created2.MaxRuns)
	}
	wantCached := created2.MaxRuns - keep
	if snap.RunsFromCache != wantCached {
		t.Errorf("%d runs from cache, want %d (journal already held %d)",
			snap.RunsFromCache, wantCached, keep)
	}
	if got := s2.lookup(created2.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("half-journal half-cache result differs from uninterrupted run")
	}

	// The journal was healed to full coverage: cached completions are
	// journaled like live ones, so resume never depends on the cache
	// staying populated.
	data, err = os.ReadFile(journalPathFor(t, dir2))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != created2.MaxRuns+1 {
		t.Errorf("resumed journal has %d lines, want %d", n, created2.MaxRuns+1)
	}
}

// TestSweepWritesHeldLinesBeforeItReturns: a submission's sweep commits
// the cached units ahead of its first miss, then returns with no executor
// to run that miss. Every cache-hit line it held is on disk by then, in the
// bytes and order of the live run's journal.
func TestSweepWritesHeldLinesBeforeItReturns(t *testing.T) {
	cache := NewMemStore()
	_, base1 := newTestServer(t, ServerOptions{LocalWorkers: 1, Cache: cache, JournalDir: t.TempDir()})
	created1 := submitSpec(t, base1, testSpec())
	waitDone(t, base1, created1.ID, time.Minute)

	// One replication more: another plan and header, but the same units
	// first, each cached, in the order one executor ran them.
	more := testSpec()
	more.MaxReps++
	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: -1, Cache: cache, JournalDir: t.TempDir()})
	created2 := submitSpec(t, base2, more)
	if snap := s2.lookup(created2.ID).c.Snapshot(); snap.State != campaign.StateRunning || snap.RunsFromCache != created1.MaxRuns {
		t.Fatalf("after submission: %s with %d runs from cache, want running with %d", snap.State, snap.RunsFromCache, created1.MaxRuns)
	}
	live, err := os.ReadFile(created1.Journal)
	if err != nil {
		t.Fatal(err)
	}
	swept, err := os.ReadFile(created2.Journal)
	if err != nil {
		t.Fatal(err)
	}
	_, liveLines, _ := bytes.Cut(live, []byte{'\n'})
	_, sweptLines, _ := bytes.Cut(swept, []byte{'\n'})
	if !bytes.Equal(sweptLines, liveLines) {
		t.Fatalf("the sweep's journal lines (%d bytes) differ from the live run's (%d bytes)", len(sweptLines), len(liveLines))
	}
}
