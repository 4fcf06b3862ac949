package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"adhocsim/internal/stats"
)

// The journal is a JSONL checkpoint: a header line identifying the campaign
// spec, then one line per completed run. Lines are appended as runs finish,
// so a killed campaign loses at most the in-flight runs (and the
// store-served lines a NextUnit still holds, see journal); a trailing
// partial line (death mid-write) is detected and truncated away on resume.
// Because run seeds are content-derived and runs are deterministic,
// replaying the journal and re-executing only the missing runs reproduces
// the uninterrupted campaign bit-for-bit.

// journalVersion 2 added serialized stream digests (Results.Streams) to
// every entry; v1 journals are rejected rather than resumed into results
// whose percentiles would silently miss the journaled replications.
const journalVersion = 2

type journalHeader struct {
	Version  int    `json:"version"`
	SpecHash string `json:"spec_hash"`
	Name     string `json:"name,omitempty"`
	Cells    int    `json:"cells"`
	MaxReps  int    `json:"max_reps"`
}

type journalEntry struct {
	Cell    int           `json:"cell"`
	Rep     int           `json:"rep"`
	Seed    int64         `json:"seed"`
	Results stats.Results `json:"results"`
}

// journal appends completed runs to the checkpoint file.
//
// A live run's line is written before its commit returns. A cache-served
// run's line is held in buf instead, and a NextUnit that served units from
// the campaign's store writes its held lines in one Write before it
// returns (or once they pass heldCap). A crash can therefore lose only the
// current NextUnit's served lines, which resume serves from the store
// again. Held lines go out ahead of any later line, so the file holds the
// lines in commit order, byte for byte as if each had been written on its
// own.
type journal struct {
	f   *os.File
	buf []byte // held lines, then the line being appended; reused
}

// heldCap bounds the held lines: an append that takes them past it writes
// them.
const heldCap = 1 << 20

// openFileLocked opens the journal file and takes an exclusive advisory
// lock (where the platform supports one), so two processes resuming the
// same checkpoint cannot interleave truncates and appends.
func openFileLocked(path string, flags int) (*os.File, error) {
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: journal %s is in use by another process: %w", path, err)
	}
	return f, nil
}

// startFresh creates (or restarts) the journal file and writes its header.
// The file is never opened with O_TRUNC: truncation happens only after the
// lock is held, so restarting an empty-looking journal cannot wipe one that
// a live process is already writing (advisory locks cannot stop an open).
func startFresh(path string, flags int, plan *Plan) (*journal, []journalEntry, error) {
	f, err := openFileLocked(path, flags)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: restarting journal: %w", err)
	}
	j := &journal{f: f}
	if err := j.writeLine(journalHeader{
		Version:  journalVersion,
		SpecHash: plan.Hash,
		Name:     plan.Spec.Name,
		Cells:    len(plan.Cells),
		MaxReps:  plan.Spec.MaxReps,
	}); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, nil, nil
}

// openJournal opens (or creates) the checkpoint at path for the given plan
// and returns the journal plus every valid entry already recorded. A header
// mismatch (different spec, different format version) is an error; a partial
// trailing line is truncated so subsequent appends start on a clean line.
func openJournal(path string, plan *Plan) (*journal, []journalEntry, error) {
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return startFresh(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, plan)
	case err != nil:
		return nil, nil, fmt.Errorf("campaign: reading journal: %w", err)
	}

	if len(bytes.TrimSpace(data)) == 0 {
		// An existing but empty file (killed before the header landed):
		// start it over.
		return startFresh(path, os.O_WRONLY, plan)
	}

	// Existing journal: validate the header, replay complete lines, and
	// remember where the last valid line ends so garbage can be cut off.
	head, rest, ok := cutLine(data)
	if !ok {
		return nil, nil, fmt.Errorf("campaign: journal %s has no complete header line", path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(head, &hdr); err != nil {
		return nil, nil, fmt.Errorf("campaign: journal %s: bad header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, nil, fmt.Errorf("campaign: journal %s is format v%d, want v%d", path, hdr.Version, journalVersion)
	}
	if hdr.SpecHash != plan.Hash {
		return nil, nil, fmt.Errorf("campaign: journal %s belongs to a different campaign spec (hash %.12s…, want %.12s…)",
			path, hdr.SpecHash, plan.Hash)
	}

	var entries []journalEntry
	validLen := len(data) - len(rest)
	for n := 2; ; n++ { // n numbers the line; the header is line 1
		line, tail, ok := cutLine(rest)
		if !ok {
			break // unterminated trailing line: drop it
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break // torn write: drop this line and everything after
		}
		if e.Cell < 0 || e.Cell >= len(plan.Cells) || e.Rep < 0 || e.Rep >= plan.Spec.MaxReps {
			return nil, nil, fmt.Errorf("campaign: journal %s: line %d: entry (cell %d, rep %d) outside the plan", path, n, e.Cell, e.Rep)
		}
		if want := plan.SeedFor(e.Cell, e.Rep); e.Seed != want {
			return nil, nil, fmt.Errorf("campaign: journal %s: line %d: entry (cell %d, rep %d) has seed %d, want %d",
				path, n, e.Cell, e.Rep, e.Seed, want)
		}
		if err := e.Results.Streams.Check(plan.SeriesGeometry(e.Cell)); err != nil {
			return nil, nil, fmt.Errorf("campaign: journal %s: line %d: entry (cell %d, rep %d) is malformed: %w",
				path, n, e.Cell, e.Rep, err)
		}
		entries = append(entries, e)
		rest = tail
		validLen = len(data) - len(rest)
	}

	f, err := openFileLocked(path, os.O_WRONLY)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: seeking journal: %w", err)
	}
	return &journal{f: f}, entries, nil
}

// cutLine splits data at the first newline. ok is false when no terminated
// line remains.
func cutLine(data []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, data, false
	}
	return data[:i], data[i+1:], true
}

// writeLine appends one JSON value as a line.
func (j *journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encoding journal line: %w", err)
	}
	j.buf = append(append(j.buf, b...), '\n')
	return j.flush()
}

// flush writes the buffered lines in a single Write call, so concurrent
// appends (serialized by the campaign mutex) and crashes can tear at most
// the final line. The buffer empties whether or not the Write succeeds: a
// failed write fails the campaign, and nothing is written twice.
func (j *journal) flush() error {
	if len(j.buf) == 0 {
		return nil
	}
	_, err := j.f.Write(j.buf)
	j.buf = j.buf[:0]
	if err != nil {
		return fmt.Errorf("campaign: appending journal line: %w", err)
	}
	return nil
}

// appendEncoded journals one run from enc, its Results as one compact JSON
// value with no newline (json.Marshal's bytes, or the identical bytes a
// worker committed). The line is assembled around enc exactly as
// json.Marshal lays out a journalEntry — fields in declaration order,
// integers in decimal — so it is byte-identical to
// append(json.Marshal(journalEntry{cell, rep, seed, res}), '\n') without
// re-encoding the Results. A held line stays in the buffer until a flush,
// a later unheld line or heldCap writes it.
func (j *journal) appendEncoded(cell, rep int, seed int64, enc []byte, hold bool) error {
	b := append(j.buf, `{"cell":`...)
	b = strconv.AppendInt(b, int64(cell), 10)
	b = append(b, `,"rep":`...)
	b = strconv.AppendInt(b, int64(rep), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"results":`...)
	b = append(b, enc...)
	b = append(b, "}\n"...)
	j.buf = b
	if hold && len(b) < heldCap {
		return nil
	}
	return j.flush()
}

// Close writes any held lines and closes the file.
func (j *journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
