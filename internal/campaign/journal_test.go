package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/metrics"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// replayOracle is what openJournal must make of a journal whose header is
// followed by tail: the entries of the longest run of complete lines that
// each decode, and the byte length of that run. outOfPlan reports that one
// of those entries names a unit or seed the plan does not hold, or carries a
// malformed sketch or a time series of another geometry than its cell's,
// which rejects the whole journal.
func replayOracle(plan *Plan, tail []byte) (entries []journalEntry, valid int, outOfPlan bool) {
	for rest := tail; ; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return entries, valid, false
		}
		var e journalEntry
		if json.Unmarshal(rest[:i], &e) != nil {
			return entries, valid, false
		}
		if e.Cell < 0 || e.Cell >= len(plan.Cells) || e.Rep < 0 || e.Rep >= plan.Spec.MaxReps ||
			e.Seed != plan.SeedFor(e.Cell, e.Rep) || e.Results.Streams.Check(plan.SeriesGeometry(e.Cell)) != nil {
			return nil, 0, true
		}
		entries = append(entries, e)
		rest = rest[i+1:]
		valid += i + 1
	}
}

func sameEntries(a, b []journalEntry) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// FuzzJournalReplay feeds openJournal a valid header followed by arbitrary
// bytes. It must never panic; it must replay exactly the complete,
// decodable prefix (cutting the rest off the file) or reject an entry
// outside the plan or with a malformed sketch; a second open must replay the same entries; and an
// entry appended from encoded bytes must reach the file as the line
// json.Marshal writes for it, right after the valid prefix, and replay to
// its Results.
func FuzzJournalReplay(f *testing.F) {
	plan, err := resumeSpec().Expand()
	if err != nil {
		f.Fatal(err)
	}
	sample := stats.Results{
		DataSent: 40, DataDelivered: 39, PDR: 39.0 / 40, AvgDelay: 0.0125,
		RoutingByType: map[string]uint64{"RREQ": 12, "RREP": 3},
		HopExcess:     map[int]uint64{0: 30, 2: 9},
		Drops:         map[stats.DropReason]uint64{stats.DropNoRoute: 1},
	}
	line := func(cell, rep int, seed int64, res stats.Results) []byte {
		// Cannot fail: Results holds no NaN, channel or func.
		b, _ := json.Marshal(journalEntry{Cell: cell, Rep: rep, Seed: seed, Results: res})
		return append(b, '\n')
	}
	good := append(line(0, 0, plan.SeedFor(0, 0), sample), line(1, 2, plan.SeedFor(1, 2), stats.Results{})...)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-7])                                       // torn final line
	f.Add(append(append([]byte{}, good...), "{\"cell\":0,\"re"...)) // unterminated tail
	f.Add(append(append([]byte{}, good...), "not json\n{}\n"...))   // garbage after a prefix
	f.Add(line(len(plan.Cells), 0, 1, sample))                      // cell outside the plan
	f.Add(line(0, 0, plan.SeedFor(0, 0)+1, sample))                 // wrong seed
	f.Add([]byte("\n\n" + strings.Repeat("{\"cell\":", 3) + "\n"))  // empty lines first
	f.Add(line(0, 0, plan.SeedFor(0, 0), malformedSketch()))        // sketch with a mean but no weight
	f.Add(line(1, 0, plan.SeedFor(1, 0), shortSeries(plan, 1)))     // 59 delay buckets of 60

	enc, err := json.Marshal(sample)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		j, _, err := startFresh(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.f.Write(tail); err != nil {
			t.Fatal(err)
		}
		j.Close()
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header := len(written) - len(tail)

		want, valid, outOfPlan := replayOracle(plan, tail)
		j, got, err := openJournal(path, plan)
		if outOfPlan {
			if err == nil || !strings.Contains(err.Error(), "outside the plan") && !strings.Contains(err.Error(), "has seed") &&
				!strings.Contains(err.Error(), "malformed") {
				j.Close()
				t.Fatalf("out-of-plan entry accepted: err=%v", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
				t.Fatal("a rejected journal was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !sameEntries(got, want) {
			j.Close()
			t.Fatalf("replayed %d entries, want the %d of the decodable prefix", len(got), len(want))
		}
		j.Close()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, written[:header+valid]) {
			t.Fatalf("file holds %d bytes after open, want header + %d valid", len(after), valid)
		}

		j, again, err := openJournal(path, plan)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if !sameEntries(again, got) {
			j.Close()
			t.Fatal("second open replayed different entries")
		}
		seed := plan.SeedFor(0, 1)
		if err := j.appendEncoded(0, 1, seed, enc, false); err != nil {
			j.Close()
			t.Fatal(err)
		}
		j.Close()
		wantLine := line(0, 1, seed, sample)
		if after, _ := os.ReadFile(path); !bytes.Equal(after, append(bytes.Clone(written[:header+valid]), wantLine...)) {
			t.Fatalf("file after append\n%s\nwant the valid prefix, then json.Marshal's line\n%s", after, wantLine)
		}

		j, third, err := openJournal(path, plan)
		if err != nil {
			t.Fatalf("open after append: %v", err)
		}
		j.Close()
		if len(third) != len(got)+1 || !sameEntries(third[:len(got)], got) {
			t.Fatalf("after append replayed %d entries, want %d", len(third), len(got)+1)
		}
		if last := third[len(got)]; last.Cell != 0 || last.Rep != 1 || last.Seed != seed ||
			!reflect.DeepEqual(last.Results, sample) {
			t.Fatalf("appended entry replayed as %+v", last)
		}
	})
}

// malformedSketch is a result whose delay sketch has a mean but no weight:
// folding it into a cell that already holds a sketch indexes past the
// weights.
func malformedSketch() stats.Results {
	return stats.Results{Streams: &metrics.RunStreams{Sketches: map[string]metrics.SketchState{
		"delay": {Compression: metrics.DefaultCompression, Count: 1, Means: []float64{1, 2}, Weights: []float64{1}},
	}}}
}

// shortSeries is a result whose time series has one delay bucket fewer
// than the cell's window: folding it into the cell's series fails.
func shortSeries(plan *Plan, cell int) stats.Results {
	g := plan.SeriesGeometry(cell)
	series := metrics.NewWindow(sim.Duration(g.Buckets)*g.Width, g.Buckets).State()
	series.Counts["delay"] = series.Counts["delay"][1:]
	series.Sums["delay"] = series.Sums["delay"][1:]
	return stats.Results{Streams: &metrics.RunStreams{Series: series}}
}

// TestJournalRejectsSeriesOfAnotherGeometry: a journaled run whose time
// series would fail its cell's fold makes the open fail with an error that
// names the line, and the file stays as it was.
func TestJournalRejectsSeriesOfAnotherGeometry(t *testing.T) {
	plan, err := resumeSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	good, err := plan.ExecuteUnit(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Streams.Series.CheckGeometry(plan.SeriesGeometry(1)); err != nil {
		t.Fatalf("an executed unit's series: %v", err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := startFresh(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []journalEntry{
		{Cell: 1, Rep: 0, Seed: plan.SeedFor(1, 0), Results: good},
		{Cell: 1, Rep: 1, Seed: plan.SeedFor(1, 1), Results: shortSeries(plan, 1)},
	} {
		if err := j.writeLine(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j, _, err := openJournal(path, plan); err == nil || !strings.Contains(err.Error(), "line 3: entry (cell 1, rep 1) is malformed") ||
		!strings.Contains(err.Error(), `geometry mismatch for "delay"`) {
		if err == nil {
			j.Close()
		}
		t.Fatalf("open = %v, want a malformed-entry error naming line 3 and the kind", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
		t.Fatal("a rejected journal was modified")
	}
}

// TestJournalRejectsMalformedSketch: a journaled run whose sketch would
// panic the fold on replay makes the open fail with an error, and the file
// stays as it was.
func TestJournalRejectsMalformedSketch(t *testing.T) {
	plan, err := resumeSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := startFresh(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.writeLine(journalEntry{Cell: 0, Rep: 0, Seed: plan.SeedFor(0, 0), Results: malformedSketch()}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j, _, err := openJournal(path, plan); err == nil || !strings.Contains(err.Error(), "(cell 0, rep 0) is malformed") {
		if err == nil {
			j.Close()
		}
		t.Fatalf("open = %v, want a malformed-entry error", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
		t.Fatal("a rejected journal was modified")
	}
}

// heldSweep is a campaign whose cache-served lines pass heldCap: MaxReps
// replications of two cells, each completed with its cell's one executed
// result, under a journal at path. With stored > 0 the campaign has a
// store that holds the first stored units in dispatch order. It returns
// the started campaign and the result of each cell.
func heldSweep(t *testing.T, path string, stored int) (*Campaign, [2]stats.Results) {
	t.Helper()
	spec := resumeSpec()
	spec.MaxReps = 250
	c, err := New(spec, Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	var res [2]stats.Results
	for ci := range res {
		if res[ci], err = c.Plan().ExecuteUnit(context.Background(), ci, 0); err != nil {
			t.Fatal(err)
		}
	}
	if stored > 0 {
		store := newMapStore()
		for u := range stored {
			ci, rep := u%len(res), u/len(res)
			store.m[c.Plan().UnitKey(ci, rep)] = res[ci]
		}
		c.SetStore(store)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c, res
}

// perLineJournal is the journal a campaign writes when every line goes out
// on its own: its header, then json.Marshal's line for each unit in
// dispatch order.
func perLineJournal(t *testing.T, c *Campaign, res [2]stats.Results) []byte {
	t.Helper()
	plan := c.Plan()
	want, err := json.Marshal(journalHeader{
		Version: journalVersion, SpecHash: plan.Hash, Name: plan.Spec.Name,
		Cells: len(plan.Cells), MaxReps: plan.Spec.MaxReps,
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	for rep := range plan.Spec.MaxReps {
		for ci := range plan.Cells {
			line, err := json.Marshal(journalEntry{Cell: ci, Rep: rep, Seed: plan.SeedFor(ci, rep), Results: res[ci]})
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
	}
	return want
}

// fileSize is the length of the file at path.
func fileSize(t *testing.T, path string) int {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// TestHeldJournalMatchesPerLineJournal: a sweep of cache-served
// completions holds its lines and writes them when they pass heldCap and
// at settle, and the file it leaves is byte-identical to a journal of
// live completions in the same order — the header, then json.Marshal's
// lines in commit order — and so is the result.
func TestHeldJournalMatchesPerLineJournal(t *testing.T) {
	dir := t.TempDir()
	results := map[bool]*Result{}
	for _, fromCache := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("cache-%v.jsonl", fromCache))
		c, res := heldSweep(t, path, 0)
		header := fileSize(t, path)
		want := perLineJournal(t, c, res)
		if len(want)-header < 2*heldCap {
			t.Fatalf("%d bytes of lines, want more than two heldCaps", len(want)-header)
		}
		for {
			ci, rep, ok := c.NextUnit()
			if !ok {
				break
			}
			c.CompleteUnit(ci, rep, res[ci], fromCache)
		}
		switch got := fileSize(t, path); {
		case !fromCache && got != len(want):
			t.Fatalf("live completions left %d bytes on disk, want all %d", got, len(want))
		case fromCache && (got <= len(want)-heldCap || got >= len(want)):
			t.Fatalf("a held sweep left %d of %d bytes on disk, want all but less than heldCap", got, len(want))
		}
		r, err := c.Finish(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results[fromCache] = r
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fromCache=%v: journal of %d bytes differs from the %d-byte per-line journal (%v)", fromCache, len(got), len(want), err)
		}
	}
	if !reflect.DeepEqual(results[true], results[false]) {
		t.Fatal("a held sweep settled to another result")
	}
}

// TestLiveLineFollowsHeldLines: a live completion's line is on disk when
// its commit returns, after every line a sweep held before it.
func TestLiveLineFollowsHeldLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	c, res := heldSweep(t, path, 0)
	header := fileSize(t, path)
	want := perLineJournal(t, c, res)
	var units int
	for range 5 {
		ci, rep, _ := c.NextUnit()
		c.CompleteUnit(ci, rep, res[ci], true)
		units++
	}
	if got := fileSize(t, path); got != header {
		t.Fatalf("%d bytes on disk after held lines, want the %d-byte header", got, header)
	}
	ci, rep, _ := c.NextUnit()
	c.CompleteUnit(ci, rep, res[ci], false)
	units++
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte{'\n'}); n != units+1 || !bytes.HasPrefix(want, got) {
		t.Fatalf("after a live line the file holds %d lines, want the header and %d lines in commit order", n, units)
	}
	c.CloseJournal()
}

// TestFailedHeldWriteFailsCampaign: a journal whose Write fails fails the
// campaign wherever the held lines go out — past heldCap inside a commit,
// when a NextUnit's sweep over the store returns, at settle — and Finish
// returns that error, not a result.
func TestFailedHeldWriteFailsCampaign(t *testing.T) {
	for _, at := range []string{"cap", "sweep", "settle"} {
		t.Run(at, func(t *testing.T) {
			stored := 0
			if at == "sweep" {
				stored = 10
			}
			c, res := heldSweep(t, filepath.Join(t.TempDir(), "j.jsonl"), stored)
			c.journal.f.Close() // every later Write fails
			units := 0
			for ; c.Err() == nil && (at == "cap" || units < 10); units++ {
				ci, rep, ok := c.NextUnit()
				if !ok {
					break
				}
				c.CompleteUnit(ci, rep, res[ci], true)
			}
			switch at {
			case "cap":
				if units == c.Plan().MaxRuns() || c.Err() == nil {
					t.Fatalf("no commit failed in %d units", units)
				}
			case "sweep":
				if units != 0 || c.Snapshot().RunsFromCache != stored || c.Err() == nil {
					t.Fatalf("NextUnit handed out %d units and served %d with error %v; want none, %d and the write error",
						units, c.Snapshot().RunsFromCache, c.Err(), stored)
				}
			}
			r, err := c.Finish(context.Background())
			if r != nil || err == nil || !strings.Contains(err.Error(), "appending journal line") {
				t.Fatalf("Finish = %v, %v; want no result and the write error", r, err)
			}
			if st := c.Snapshot().State; st != StateFailed {
				t.Fatalf("state %s, want %s", st, StateFailed)
			}
		})
	}
}

// Err returns the first fatal error recorded so far (nil while healthy).
func (c *Campaign) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
