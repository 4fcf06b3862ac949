package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// State of a campaign's lifecycle.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Stop reasons recorded per cell.
const (
	StopCI      = "ci"       // sequential rule: every epsilon target met
	StopMaxReps = "max_reps" // replication cap reached
)

// Options configure campaign execution.
type Options struct {
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// JournalPath, when non-empty, checkpoints every completed run to a
	// JSONL file. If the file already holds a journal of the same spec, the
	// campaign resumes from it instead of starting over.
	JournalPath string
	// OnProgress, when non-nil, observes a Snapshot after every completed
	// run. Calls are serialized under the campaign mutex: keep it fast and
	// do not call back into the campaign from it.
	OnProgress func(Snapshot)
}

// Snapshot is a point-in-time view of campaign progress, safe to read while
// the campaign runs. Operational counters live here (not in Result) so that
// resumed and uninterrupted campaigns can produce identical Results even
// though they executed different numbers of runs.
type Snapshot struct {
	Name            string `json:"name,omitempty"`
	State           State  `json:"state"`
	Cells           int    `json:"cells"`
	CellsStopped    int    `json:"cells_stopped"`
	RunsDone        int    `json:"runs_done"`
	RunsFromJournal int    `json:"runs_from_journal,omitempty"`
	RunsFromCache   int    `json:"runs_from_cache,omitempty"`
	MaxRuns         int    `json:"max_runs"`
	Err             string `json:"error,omitempty"`
}

// CellResult is the aggregate of one cell's committed replications.
type CellResult struct {
	Protocol string    `json:"protocol"`
	Point    []float64 `json:"point,omitempty"`
	Label    string    `json:"label"`
	// Reps is the number of replications the sequential rule committed.
	Reps       int    `json:"reps"`
	StopReason string `json:"stop_reason"`
	// Merged is the replication-merged metric set (the same shape the sweep
	// and grid JSON exports use).
	Merged stats.Results `json:"merged"`
	// Metrics maps each catalogue metric to its cross-replication summary,
	// including the Student-t 95% confidence half-width.
	Metrics map[string]stats.Summary `json:"metrics"`
	// Quantiles maps sketched sample kinds ("delay", "hops") to percentile
	// summaries over every delivered packet of every committed replication —
	// per-packet distributions, not per-run means. Nil when the cell's runs
	// carried no stream digests.
	Quantiles map[string]metrics.QuantileSummary `json:"quantiles,omitempty"`
	// Series is the bucket-wise sum of the per-run time series of every
	// committed replication. Nil when runs carried no stream digests.
	Series *metrics.SeriesState `json:"series,omitempty"`
}

// Result is the final aggregate of a campaign. It is a pure function of the
// spec: interrupted-and-resumed campaigns produce a Result that is
// reflect.DeepEqual to an uninterrupted run's.
type Result struct {
	Name       string       `json:"name,omitempty"`
	SpecHash   string       `json:"spec_hash"`
	Protocols  []string     `json:"protocols"`
	AxisLabels []string     `json:"axis_labels,omitempty"`
	Points     [][]float64  `json:"points,omitempty"`
	Cells      []CellResult `json:"cells"`
}

// cellState is the engine-side accumulation for one cell.
type cellState struct {
	// results[rep] is set when that replication has completed (executed or
	// replayed from the journal); commits consume the contiguous prefix,
	// and settle reads results[0:committed] for the merged metric set and
	// the stream digests.
	results []*stats.Results
	// issued[rep] marks replications handed out and not released, or
	// landed, so the cursor never double-runs one and Release queues each
	// at most once.
	issued []bool
	// committed is the length of the prefix folded into acc, in replication
	// order — this ordering is what makes aggregation completion-order
	// independent and therefore resumable bit-identically.
	committed  int
	acc        []stats.Welford // parallel to Plan.Metrics
	stopReason string          // why the cell stopped; "" while it runs
	// keys[rep] is where results[rep] lives in the campaign's store; nil
	// until a result that lives there lands.
	keys []storedAs
}

// foldStreams merges the stream digests of a cell's committed replications,
// strictly in replication order — the same in-order discipline as acc, so
// resume and distributed execution reproduce bit-identical percentiles.
// Settle calls it once per cell. Kinds are independent sketches, so map
// iteration order does not affect any per-kind result. Digests are checked
// where they enter (Plan.SeriesGeometry), so the geometry error it returns
// is a backstop for Go callers of CompleteUnit.
func foldStreams(reps []*stats.Results) (map[string]*metrics.Sketch, *metrics.SeriesState, error) {
	var sketches map[string]*metrics.Sketch
	var series *metrics.SeriesState
	for _, r := range reps {
		st := r.Streams
		if st == nil {
			continue
		}
		if len(st.Sketches) > 0 && sketches == nil {
			sketches = make(map[string]*metrics.Sketch, len(st.Sketches))
		}
		for name, state := range st.Sketches {
			if sk := sketches[name]; sk != nil {
				sk.MergeState(state)
			} else {
				sketches[name] = metrics.FromState(state)
			}
		}
		if st.Series != nil {
			if series == nil {
				series = st.Series.Clone()
			} else if err := series.Merge(st.Series); err != nil {
				return nil, nil, err
			}
		}
	}
	return sketches, series, nil
}

// Campaign executes one expanded Plan. Create with New, run once with Run;
// Snapshot may be called concurrently at any time.
type Campaign struct {
	plan *Plan
	opts Options

	// epsIdx maps Plan.Metrics indices to their epsilon targets.
	epsIdx map[int]float64

	mu              sync.Mutex
	state           State
	cells           []cellState
	cellsStopped    int
	journal         *journal
	store           Store // SetStore: units' store, where cells keep their folds
	closed          bool  // CloseJournal ran: completions are refused
	cursorRound     int
	cursorCell      int
	released        []unit // re-issue queue, served before the cursor
	runsDone        int
	runsFromJournal int
	runsFromCache   int
	err             error
	result          *Result
}

// unit names one (cell, replication) pair.
type unit struct{ cell, rep int }

// New validates and expands the spec into a ready-to-run campaign. The
// journal (if any) is opened by Run, not New, so constructing a campaign has
// no filesystem side effects.
func New(spec Spec, opts Options) (*Campaign, error) {
	plan, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		plan:   plan,
		opts:   opts,
		epsIdx: make(map[int]float64),
		state:  StatePending,
		cells:  make([]cellState, len(plan.Cells)),
	}
	for mi, m := range plan.Metrics {
		if e, ok := plan.Spec.Epsilon[m.Name]; ok {
			c.epsIdx[mi] = e
		}
	}
	for i := range c.cells {
		c.cells[i] = cellState{
			results: make([]*stats.Results, plan.Spec.MaxReps),
			issued:  make([]bool, plan.Spec.MaxReps),
			acc:     make([]stats.Welford, len(plan.Metrics)),
		}
	}
	return c, nil
}

// Plan exposes the expanded plan (cells, seeds, hash).
func (c *Campaign) Plan() *Plan { return c.plan }

// SetJournalPath configures the checkpoint journal after construction (the
// HTTP services derive the path from the plan hash, which only exists once
// New has expanded the spec). It must be called before Start/Run.
func (c *Campaign) SetJournalPath(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.JournalPath = path
}

// JournalPath reports the configured checkpoint journal ("" = none).
func (c *Campaign) JournalPath() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts.JournalPath
}

// Closed reports whether CloseJournal has run — by Finish, or directly —
// so the campaign accepts no completion and its journal is free to reopen.
func (c *Campaign) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Start transitions the campaign to running: it opens the checkpoint journal
// (if configured), replays its entries, and readies the dispatch cursor. It
// is the first half of Run, exported so external schedulers — the
// distributed coordinator in internal/dist — can drive execution unit by
// unit through NextUnit/Release/CompleteUnit/Finish instead of a local
// pool. The campaign keeps all per-unit dispatch state: a scheduler holds
// no queue or shadow copy of its own.
func (c *Campaign) Start() error {
	c.mu.Lock()
	if c.state != StatePending {
		c.mu.Unlock()
		return fmt.Errorf("campaign: started twice")
	}
	c.state = StateRunning
	c.mu.Unlock()

	if c.opts.JournalPath != "" {
		j, entries, err := openJournal(c.opts.JournalPath, c.plan)
		if err != nil {
			return c.fail(err)
		}
		c.mu.Lock()
		c.journal = j
		for _, e := range entries {
			c.replayLocked(e)
		}
		c.mu.Unlock()
	}
	return nil
}

// Run executes the campaign to completion (or cancellation) and returns the
// aggregate. It may be called once. It is the single-process composition of
// the unit primitives: Start, a local pool over NextUnit → Plan.ExecuteUnit
// → CompleteUnit, then Finish.
func (c *Campaign) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.Start(); err != nil {
		return nil, err
	}

	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci, rep, ok := c.NextUnit()
				if !ok {
					return
				}
				res, err := c.plan.ExecuteUnit(ctx, ci, rep)
				if err != nil {
					c.Abort(err)
					return
				}
				c.CompleteUnit(ci, rep, res, false)
			}
		}()
	}
	wg.Wait()

	return c.Finish(ctx)
}

// Finish settles the campaign after execution has drained: it evaluates the
// terminal state, builds the final aggregate, and closes the journal. It is
// idempotent — once the campaign is terminal, it returns the stored outcome.
func (c *Campaign) Finish(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := c.settle(ctx)
	c.CloseJournal()
	return res, err
}

// CloseJournal flushes and closes the checkpoint journal without settling
// the campaign, which accepts no completion from then on. The
// graceful-shutdown path uses it to leave a suspended campaign's journal as
// clean, resumable recovery state; Finish calls it on the normal path. A
// held line that fails to write here is lost to the file only: resume
// serves it from the cache again.
func (c *Campaign) CloseJournal() {
	c.mu.Lock()
	j := c.journal
	c.journal = nil
	c.closed = true
	c.mu.Unlock()
	j.Close()
}

// fail records a pre-execution failure and returns it.
func (c *Campaign) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setErrLocked(err)
	c.state = StateFailed
	if isCancel(c.err) {
		c.state = StateCancelled
	}
	return c.err
}

// settle computes the campaign's final state after the pool drained.
func (c *Campaign) settle(ctx context.Context) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Already terminal (Finish called twice): return the stored outcome.
	switch c.state {
	case StateDone:
		return c.result, nil
	case StateFailed, StateCancelled:
		return nil, c.err
	}
	// Every held line is on disk before the campaign settles; a failed
	// write fails it.
	c.flushJournalLocked()
	// A campaign whose every cell has stopped is complete: a cancellation
	// that only interrupted speculative (never-to-be-committed) runs, or
	// that landed after the final commit, must not throw the aggregate
	// away — with no journal it would be unrecoverable.
	allStopped := c.cellsStopped == len(c.cells)
	if allStopped && isCancel(c.err) {
		c.err = nil
	}
	if c.err == nil && ctx.Err() != nil && !allStopped {
		// Cancellation raced the last dispatch: surface it rather than
		// returning a partial aggregate as if it were complete.
		c.err = ctx.Err()
	}
	if c.err != nil {
		if isCancel(c.err) {
			c.state = StateCancelled
			if ctx.Err() != nil {
				// Prefer the naked context error over a wrapped per-run one.
				c.err = ctx.Err()
			}
		} else {
			c.state = StateFailed
		}
		return nil, c.err
	}
	// Cells share no state, so they fold in parallel; each folds its own
	// replications in order, so no value depends on the split.
	cells := make([]CellResult, len(c.plan.Cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1) - 1); ci < len(cells); ci = int(next.Add(1) - 1) {
				cells[ci], errs[ci] = c.cellResult(ci)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.err, c.state = err, StateFailed
			return nil, err
		}
	}
	labels := c.plan.Labels
	if len(labels) == 0 {
		// nil, not []: axis_labels is omitempty, and a Result must survive a
		// JSON roundtrip bit-identically — the distributed coordinator's
		// DeepEqual guarantee covers the HTTP view too.
		labels = nil
	}
	c.result = &Result{
		Name:       c.plan.Spec.Name,
		SpecHash:   c.plan.Hash,
		Protocols:  c.plan.Protocols,
		AxisLabels: labels,
		Points:     c.plan.Points,
		Cells:      cells,
	}
	c.state = StateDone
	return c.result, nil
}

// cellResult aggregates one cell's committed replications. It reads only
// the cell's own state, so settle runs it for all cells at once. With a
// store, a cell whose every committed replication was served from it
// reads its fold from there when the store holds it (cellKey); otherwise
// it folds, and saves the fold when every committed replication is in the
// store. The metric summaries always come from the cell's accumulators.
func (c *Campaign) cellResult(ci int) (CellResult, error) {
	cs := &c.cells[ci]
	summaries := make(map[string]stats.Summary, len(c.plan.Metrics))
	for mi, m := range c.plan.Metrics {
		summaries[m.Name] = cs.acc[mi].Summary()
	}
	out := CellResult{
		Protocol:   c.plan.Cells[ci].Protocol,
		Point:      c.plan.Cells[ci].Point,
		Label:      c.plan.Cells[ci].Label,
		Reps:       cs.committed,
		StopReason: cs.stopReason,
		Metrics:    summaries,
	}
	key, served := c.cellKey(cs)
	if served {
		// A faulty store degrades to a miss, as it does for a unit.
		if e, _, found, err := c.store.Load(key, c.plan.SeriesGeometry(ci)); err == nil && found {
			out.Merged, out.Quantiles, out.Series = fromFoldEntry(e)
			return out, nil
		}
	}
	sketches, series, err := foldStreams(cs.results[:cs.committed])
	if err != nil {
		return CellResult{}, fmt.Errorf("campaign: cell %q: %w", c.plan.Cells[ci].Label, err)
	}
	reps := make([]stats.Results, cs.committed)
	for r := range reps {
		reps[r] = *cs.results[r]
	}
	out.Merged, out.Series = stats.MergeResults(reps), series
	if len(sketches) > 0 {
		out.Quantiles = make(map[string]metrics.QuantileSummary, len(sketches))
		for name, sk := range sketches {
			out.Quantiles[name] = sk.Summary()
		}
	}
	if key != "" {
		// A faulty store must not fail the campaign; it only costs reuse.
		_ = c.store.Save(key, foldEntry(out.Merged, sketches, series), nil)
	}
	return out, nil
}

// NextUnit hands out the next useful (cell, replication) pair: first any
// released unit still needed, in release order, then the cursor's next.
// The cursor is breadth-first (replication rounds across all cells) so
// early-stop decisions are made before deep speculation, and forward-only:
// stopping only removes work, so it visits each pair at most once. New work
// appears only through Release — the in-process pool never releases, so its
// workers exit on !ok; a distributed coordinator releases the units of
// expired or returned leases and polls again.
func (c *Campaign) NextUnit() (ci, rep int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, 0, false
	}
	for len(c.released) > 0 {
		u := c.released[0]
		c.released = c.released[1:]
		if cs := &c.cells[u.cell]; cs.stopReason == "" && cs.results[u.rep] == nil {
			cs.issued[u.rep] = true
			return u.cell, u.rep, true
		}
	}
	for c.cursorRound < c.plan.Spec.MaxReps {
		for c.cursorCell < len(c.cells) {
			i := c.cursorCell
			c.cursorCell++
			cs := &c.cells[i]
			if cs.stopReason != "" || cs.issued[c.cursorRound] {
				continue
			}
			cs.issued[c.cursorRound] = true
			return i, c.cursorRound, true
		}
		c.cursorCell = 0
		c.cursorRound++
	}
	return 0, 0, false
}

// Release returns a handed-out unit whose run will not complete — its
// lease expired or its worker gave it back — so NextUnit serves it again.
// A unit that landed, whose cell stopped, or that is not out is ignored.
func (c *Campaign) Release(ci, rep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := &c.cells[ci]
	if c.state != StateRunning || c.err != nil || cs.stopReason != "" || cs.results[rep] != nil || !cs.issued[rep] {
		return
	}
	cs.issued[rep] = false
	c.released = append(c.released, unit{ci, rep})
}

// Released reports the length of the re-issue queue (stale entries, whose
// unit landed or whose cell stopped while queued, included).
func (c *Campaign) Released() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.released)
}

// Outcome is what one CompleteUnitEncoded call decided, under one lock.
type Outcome struct {
	// Landed reports that this call recorded the result. A duplicate does
	// not land; Winner is then the result that landed first. Both are
	// unset when the campaign accepts no completions.
	Landed bool
	Winner *stats.Results
	// Failed reports that the campaign holds a fatal error (a journal write
	// failed, say): the caller should Finish. When the journal write itself
	// failed, the fields below are unset.
	Failed bool
	// Enc is enc itself or, when enc was nil, the fresh encoding the journal
	// wrote (nil with no journal open).
	Enc []byte
	// Stopped reports that this result stopped its cell (once per cell);
	// Done that every cell has now stopped, so the caller should Finish.
	Stopped, Done bool
	// Snapshot is the progress view this commit left.
	Snapshot Snapshot
}

// CompleteUnit records one executed run: journal it, then commit in
// replication order. Duplicates (journal overlap, a re-issued lease whose
// original worker turned out to be alive) are ignored — the first result
// wins, and determinism makes every copy identical anyway. fromCache marks
// results replayed from the content-addressed result cache; they are
// counted separately in snapshots and journaled like live completions, so
// a resumed campaign never depends on the cache still being populated, but
// their lines are held until FlushJournal, the next live line or settle
// writes them. Completions arriving after the campaign settled or closed
// its journal are dropped. A result handed over here is in no store, so
// its cell neither reads nor saves a fold entry.
func (c *Campaign) CompleteUnit(ci, rep int, res stats.Results, fromCache bool) {
	c.CompleteUnitEncoded(ci, rep, res, nil, "", fromCache)
}

// CompleteUnitEncoded is CompleteUnit for a caller that may already hold
// enc, an encoding of res — JSON that decodes to res and holds no newline,
// such as json.Marshal(res) or the bytes a worker committed (a result cache
// keeps it beside the result) — and that acts on the outcome. The journal
// writes enc verbatim; only when enc is nil and a journal is open is res
// encoded, once. Callers must not modify enc afterwards. key is the unit
// key res lives under in the campaign's store (SetStore): the entry it was
// served from when fromCache, else the one the caller saves it under once
// it has landed; "" when res is in no store.
func (c *Campaign) CompleteUnitEncoded(ci, rep int, res stats.Results, enc []byte, key string, fromCache bool) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := &c.cells[ci]
	if prev := cs.results[rep]; prev != nil {
		winner := *prev
		return Outcome{Winner: &winner} // duplicate; first result wins
	}
	if c.state != StateRunning || c.closed {
		return Outcome{}
	}
	// Remote and cache completions may bypass NextUnit entirely.
	cs.issued[rep] = true
	cs.results[rep] = &res
	if key != "" && c.store != nil {
		if cs.keys == nil {
			cs.keys = make([]storedAs, c.plan.Spec.MaxReps)
		}
		cs.keys[rep] = storedAs{key, fromCache}
	}
	c.runsDone++
	if fromCache {
		c.runsFromCache++
	}
	if c.journal != nil {
		var err error
		if enc == nil {
			if enc, err = json.Marshal(res); err != nil {
				err = fmt.Errorf("campaign: encoding journal line: %w", err)
			}
		}
		if err == nil {
			err = c.journal.appendEncoded(ci, rep, c.plan.SeedFor(ci, rep), enc, fromCache)
		}
		if err != nil {
			c.setErrLocked(err)
			return Outcome{Landed: true, Failed: true}
		}
	}
	out := Outcome{Landed: true, Enc: enc, Stopped: c.commitLocked(ci)}
	out.Done = c.cellsStopped == len(c.cells)
	out.Failed = c.err != nil
	out.Snapshot = c.snapshotLocked()
	if c.opts.OnProgress != nil {
		c.opts.OnProgress(out.Snapshot)
	}
	return out
}

// FlushJournal writes the journal lines held for cache-served completions
// in one Write. A coordinator calls it when a sweep over its result cache
// returns. A failed write fails the campaign, as a failed append does: it
// is returned and recorded, and the caller should Finish.
func (c *Campaign) FlushJournal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushJournalLocked()
}

func (c *Campaign) flushJournalLocked() error {
	if c.journal == nil {
		return nil
	}
	err := c.journal.flush()
	c.setErrLocked(err)
	return err
}

// replayLocked feeds one journaled run back into the engine: the result is
// stored and marked issued (never re-run), then committed exactly like a
// live completion — same values, same order, bit-identical accumulators.
func (c *Campaign) replayLocked(e journalEntry) {
	cs := &c.cells[e.Cell]
	if cs.results[e.Rep] != nil {
		return
	}
	res := e.Results
	cs.results[e.Rep] = &res
	cs.issued[e.Rep] = true
	c.runsDone++
	c.runsFromJournal++
	c.commitLocked(e.Cell)
}

// commitLocked folds the contiguous completed prefix of a cell into its
// Welford accumulators — always in replication order, never past a stop
// decision. Speculative results beyond the stop point stay uncommitted, so
// the aggregate does not depend on scheduling. It reports whether the cell
// stopped in this call.
func (c *Campaign) commitLocked(ci int) bool {
	cs := &c.cells[ci]
	for cs.stopReason == "" && cs.committed < c.plan.Spec.MaxReps && cs.results[cs.committed] != nil {
		r := cs.results[cs.committed]
		for mi := range c.plan.Metrics {
			cs.acc[mi].Add(c.plan.Metrics[mi].Value(*r))
		}
		cs.committed++
		if c.epsilonMetLocked(cs) {
			cs.stopReason = StopCI
		} else if cs.committed == c.plan.Spec.MaxReps {
			cs.stopReason = StopMaxReps
		}
		if cs.stopReason != "" {
			c.cellsStopped++
			return true
		}
	}
	return false
}

// epsilonMetLocked evaluates the sequential stopping rule on the committed
// prefix: at least MinReps replications, and every epsilon metric's 95%
// confidence half-width at or below its target.
func (c *Campaign) epsilonMetLocked(cs *cellState) bool {
	if len(c.epsIdx) == 0 || cs.committed < c.plan.Spec.MinReps {
		return false
	}
	for mi, eps := range c.epsIdx {
		if cs.acc[mi].CI95() > eps {
			return false
		}
	}
	return true
}

// Abort records a fatal execution error; dispatch stops handing out units
// and Finish will report the failure. Cancellation errors lose to real
// failures recorded earlier or later.
func (c *Campaign) Abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setErrLocked(err)
}

func (c *Campaign) setErrLocked(err error) {
	if err == nil {
		return
	}
	if c.err == nil {
		c.err = err
		return
	}
	// A real failure outranks cancellation symptoms.
	if isCancel(c.err) && !isCancel(err) {
		c.err = err
	}
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Snapshot returns the current progress view; safe at any time, from any
// goroutine.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Campaign) snapshotLocked() Snapshot {
	s := Snapshot{
		Name:            c.plan.Spec.Name,
		State:           c.state,
		Cells:           len(c.cells),
		CellsStopped:    c.cellsStopped,
		RunsDone:        c.runsDone,
		RunsFromJournal: c.runsFromJournal,
		RunsFromCache:   c.runsFromCache,
		MaxRuns:         c.plan.MaxRuns(),
	}
	if c.err != nil {
		s.Err = c.err.Error()
	}
	return s
}

// Result returns the final aggregate once the campaign is done (nil before).
func (c *Campaign) Result() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// Run expands and executes a campaign in one call — the plain entry point
// for Go callers and the adhocsim campaign subcommand.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	c, err := New(spec, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}
