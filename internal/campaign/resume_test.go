package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adhocsim/internal/core"
)

func resumeSpec() Spec {
	return Spec{
		Name:      "resume-test",
		Scenario:  tinyScenario(),
		Protocols: []string{core.DSR, core.Flood},
		MaxReps:   3,
		BaseSeed:  7,
	}
}

// journalLines splits a journal file into its header and entry lines.
func journalLines(t *testing.T, path string) (header string, entries []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines[0], lines[1:]
}

// TestResumeFromJournalPrefixes is the checkpoint/resume acceptance test: a
// campaign killed after any prefix of its journal must resume to a Result
// that is reflect.DeepEqual to the uninterrupted one.
func TestResumeFromJournalPrefixes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	basePath := filepath.Join(dir, "base.jsonl")
	want, err := Run(ctx, resumeSpec(), Options{JournalPath: basePath})
	if err != nil {
		t.Fatal(err)
	}

	// Journaling itself must not change the aggregate.
	plain, err := Run(ctx, resumeSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Fatal("journaled and journal-free campaigns diverge")
	}

	header, entries := journalLines(t, basePath)
	if len(entries) != 6 { // 2 cells × 3 reps, no early stopping
		t.Fatalf("journal holds %d entries", len(entries))
	}

	prefixes := []int{0, 1, 3, 5, 6}
	if testing.Short() {
		prefixes = []int{0, 3, 6}
	}
	for _, k := range prefixes {
		path := filepath.Join(dir, "prefix.jsonl")
		content := header + "\n" + strings.Join(entries[:k], "\n")
		if k > 0 {
			content += "\n"
		}
		// Simulate death mid-append: a torn, unterminated trailing line.
		content += `{"cell":0,"rep"`
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(resumeSpec(), Options{JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx)
		if err != nil {
			t.Fatalf("resume after %d entries: %v", k, err)
		}
		if snap := c.Snapshot(); snap.RunsFromJournal != k {
			t.Fatalf("resume after %d entries replayed %d", k, snap.RunsFromJournal)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume after %d entries diverges from uninterrupted run", k)
		}
		// The resumed journal must now be complete: resuming again runs
		// nothing and still agrees.
		c2, err := New(resumeSpec(), Options{JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		again, err := c2.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap := c2.Snapshot(); snap.RunsFromJournal != 6 {
			t.Fatalf("second resume replayed %d entries", snap.RunsFromJournal)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatal("fully-journaled resume diverges")
		}
		os.Remove(path)
	}
}

// TestResumeAfterCancellation interrupts a live campaign via context
// cancellation mid-flight, then resumes from its journal.
func TestResumeAfterCancellation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cancelled.jsonl")

	want, err := Run(context.Background(), resumeSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Run(ctx, resumeSpec(), Options{
		JournalPath: path,
		Workers:     2,
		OnProgress: func(s Progress) {
			if s.RunsDone >= 2 {
				cancel()
			}
		},
	})
	if !isCancel(err) {
		t.Fatalf("interrupted campaign returned %v", err)
	}

	got, err := Run(context.Background(), resumeSpec(), Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed-after-cancel result diverges from uninterrupted run")
	}
}

// TestJournalExclusiveLock: two processes (here: two opens) must not share
// one checkpoint — the second open fails instead of corrupting the file.
func TestJournalExclusiveLock(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("flock is unix-only")
	}
	plan, err := resumeSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := openJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := openJournal(path, plan); err == nil ||
		!strings.Contains(err.Error(), "in use by another process") {
		t.Fatalf("concurrent open: %v", err)
	}
}

func TestJournalSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	if _, err := Run(context.Background(), resumeSpec(), Options{JournalPath: path}); err != nil {
		t.Fatal(err)
	}
	other := resumeSpec()
	other.MaxReps = 2
	if _, err := Run(context.Background(), other, Options{JournalPath: path}); err == nil ||
		!strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}
