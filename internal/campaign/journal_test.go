package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// replayOracle is what openJournal must make of a journal whose header is
// followed by tail: the entries of the longest run of complete lines that
// each decode, and the byte length of that run. outOfPlan reports that one
// of those entries names a unit or seed the plan does not hold, or carries a
// malformed sketch, which rejects the whole journal.
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
			e.Seed != plan.SeedFor(e.Cell, e.Rep) || e.Results.Streams.Validate() != nil {
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
// entry appended from encoded bytes must be the line json.Marshal writes
// for it and replay to its Results.
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
		if err := j.appendEncoded(0, 1, seed, enc); err != nil {
			j.Close()
			t.Fatal(err)
		}
		if wantLine := line(0, 1, seed, sample); !bytes.Equal(j.line, wantLine) {
			j.Close()
			t.Fatalf("appended line\n%s\nwant json.Marshal's\n%s", j.line, wantLine)
		}
		j.Close()

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
