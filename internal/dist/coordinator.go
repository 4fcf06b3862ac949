package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/stats"
)

// ServerOptions configure the coordinator.
type ServerOptions struct {
	// LocalWorkers sizes the per-campaign in-process executor pool:
	// 0 selects GOMAXPROCS, -1 disables local execution entirely (a pure
	// coordinator that only progresses through remote workers). Local
	// executors run through exactly the same dispatch and commit path as
	// remote ones, so mixed local+remote execution stays deterministic.
	LocalWorkers int
	// JournalDir, when non-empty, checkpoints every campaign to
	// <dir>/<spec-hash[:16]>.jsonl; resubmitting a spec resumes its journal.
	JournalDir string
	// Cache, when non-nil, is the content-addressed result store consulted
	// before leasing any unit and fed by every live commit.
	Cache Store
	// LeaseTTL bounds how long a silent worker keeps a unit (default 30s).
	LeaseTTL time.Duration
	// ReapInterval is the expired-lease sweep cadence (default 1s).
	ReapInterval time.Duration
}

// Server is the campaign coordinator and the one HTTP simulation service.
// It owns the campaign lifecycle (submit, progress, results, cancel), the
// worker protocol (lease, renew, release, commit, spec) and a per-campaign
// SSE progress stream.
// With its default local executors it needs no remote worker at all.
type Server struct {
	opts     ServerOptions
	leaseTTL time.Duration

	hub    *Hub
	cache  Store
	leases *leaseTable

	base       context.Context
	cancelBase context.CancelFunc

	mu        sync.Mutex
	seq       int
	campaigns map[string]*managed
	draining  bool

	reapOnce sync.Once // stops the reaper exactly once
	reapStop chan struct{}
	reapDone chan struct{}
}

// managed is one campaign under coordination.
type managed struct {
	id          string
	c           *campaign.Campaign
	journalPath string

	ctx    context.Context
	cancel context.CancelFunc

	// mu serializes dispatch, commit and finish for this campaign; the
	// campaign's own mutex guards its accumulators, this one guards the
	// scheduling state around it (re-issue queue, event fan-out order —
	// which is what makes SSE run counts monotone).
	mu          sync.Mutex
	pending     []unitRef // re-issue queue: expired/released leases
	stoppedSeen []bool    // cells whose convergence was already announced
	finished    bool
	done        chan struct{}

	wg sync.WaitGroup // local executors
}

type unitRef struct{ cell, rep int }

// NewServer creates a coordinator and starts its lease reaper.
func NewServer(opts ServerOptions) *Server {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.ReapInterval <= 0 {
		opts.ReapInterval = time.Second
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		leaseTTL:   opts.LeaseTTL,
		hub:        NewHub(),
		cache:      opts.Cache,
		leases:     newLeaseTable(time.Now),
		base:       base,
		cancelBase: cancel,
		campaigns:  make(map[string]*managed),
		reapStop:   make(chan struct{}),
		reapDone:   make(chan struct{}),
	}
	go s.reap()
	return s
}

// Hub exposes the progress bus (in-process subscribers, tests).
func (s *Server) Hub() *Hub { return s.hub }

// reap periodically re-queues units whose leases expired without renewal.
func (s *Server) reap() {
	defer close(s.reapDone)
	t := time.NewTicker(s.opts.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			for _, l := range s.leases.expire() {
				if m := s.lookup(l.Campaign); m != nil {
					m.mu.Lock()
					if !m.finished && m.c.UnitNeeded(l.Cell, l.Rep) {
						m.pending = append(m.pending, unitRef{l.Cell, l.Rep})
					}
					m.mu.Unlock()
				}
			}
		}
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleDelete)

	mux.HandleFunc("POST /dist/lease", s.handleLease)
	mux.HandleFunc("POST /dist/renew", s.handleRenew)
	mux.HandleFunc("POST /dist/release", s.handleRelease)
	mux.HandleFunc("POST /dist/commit", s.handleCommit)
	mux.HandleFunc("GET /dist/campaigns/{id}/spec", s.handleSpec)
	mux.HandleFunc("GET /dist/status", s.handleStatus)
	return mux
}

// lookup finds a managed campaign by id.
func (s *Server) lookup(id string) *managed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// isDraining reports whether a graceful shutdown is underway (dispatch
// stops, in-flight work drains).
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// maxSpecBytes caps a POST /campaigns body: ~1000× the largest in-tree
// spec, so one request cannot make the coordinator buffer arbitrary input.
const maxSpecBytes = 1 << 20

// createdResponse is the POST /campaigns reply.
type createdResponse struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Events  string `json:"events"`
	Cells   int    `json:"cells"`
	MaxRuns int    `json:"max_runs"`
	Journal string `json:"journal,omitempty"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("decoding spec: %w", err))
		return
	}
	c, err := campaign.New(spec, campaign.Options{})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	journalPath := ""
	if s.opts.JournalDir != "" {
		// Keyed by spec hash, not campaign id: resubmitting a spec resumes
		// its own checkpoint, distinct specs can never collide.
		journalPath = filepath.Join(s.opts.JournalDir, c.Plan().Hash[:16]+".jsonl")
		c.SetJournalPath(journalPath)
	}

	ctx, cancel := context.WithCancel(s.base)
	m := &managed{
		c:           c,
		journalPath: journalPath,
		ctx:         ctx,
		cancel:      cancel,
		stoppedSeen: make([]bool, len(c.Plan().Cells)),
		done:        make(chan struct{}),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, errors.New("coordinator is shutting down"))
		return
	}
	if journalPath != "" {
		// Two live campaigns must not append to one journal. The journal's
		// advisory flock would also catch this, but a clear 409 beats a
		// "file in use" 500.
		for _, other := range s.campaigns {
			if other.journalPath == journalPath && !other.isFinished() {
				s.mu.Unlock()
				cancel()
				httpError(w, http.StatusConflict,
					fmt.Errorf("campaign %s is already running this spec (journal %s)", other.id, journalPath))
				return
			}
		}
	}
	s.seq++
	m.id = fmt.Sprintf("c%d", s.seq)
	s.campaigns[m.id] = m
	s.mu.Unlock()

	// Start opens and replays the journal; a spec-hash mismatch or a
	// concurrently-locked checkpoint surfaces here, at submission time.
	if err := c.Start(); err != nil {
		m.mu.Lock()
		m.finished = true
		close(m.done)
		m.mu.Unlock()
		cancel()
		httpError(w, http.StatusConflict, err)
		return
	}

	// Drain any leading cache hits (and a journal that already holds the
	// whole campaign) before any executor spins up: a fully-cached
	// resubmission completes right here with zero leases granted.
	m.mu.Lock()
	if m.c.AllStopped() || m.c.Err() != nil {
		s.finishLocked(m)
	} else {
		s.primeLocked(m)
	}
	finished := m.finished
	m.mu.Unlock()

	if !finished {
		local := s.opts.LocalWorkers
		if local == 0 {
			local = runtime.GOMAXPROCS(0)
		}
		for i := 0; i < local; i++ {
			m.wg.Add(1)
			go s.runLocal(m)
		}
	}

	writeJSON(w, http.StatusCreated, createdResponse{
		ID:      m.id,
		URL:     "/campaigns/" + m.id,
		Events:  "/campaigns/" + m.id + "/events",
		Cells:   len(c.Plan().Cells),
		MaxRuns: c.Plan().MaxRuns(),
		Journal: journalPath,
	})
}

func (m *managed) isFinished() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.finished
}

// primeLocked walks the dispatch cursor committing consecutive cache hits;
// the first miss is parked on the re-issue queue so no unit is lost. It
// runs at submission so fully-cached campaigns complete without any
// worker, and keeps dispatch lazy otherwise (early-stop decisions prune
// speculative work before it is ever leased).
func (s *Server) primeLocked(m *managed) {
	for !m.finished {
		ci, rep, ok := m.c.NextUnit()
		if !ok {
			return
		}
		if res, enc, hit := s.cachedResult(m, ci, rep); hit {
			s.commitLocked(m, ci, rep, res, enc, true)
			continue
		}
		m.pending = append(m.pending, unitRef{ci, rep})
		return
	}
}

// cachedResult consults the content-addressed store and returns a hit with
// its stored encoding (possibly nil); cache faults degrade to misses.
func (s *Server) cachedResult(m *managed, ci, rep int) (res stats.Results, enc []byte, hit bool) {
	if s.cache == nil {
		return res, nil, false
	}
	got, enc, found, err := s.cache.Load(m.c.Plan().UnitKey(ci, rep))
	if err != nil || !found {
		return res, nil, false
	}
	return got, enc, true
}

// dispatch hands out the next unit of a campaign, committing cache hits
// inline. ttl > 0 grants a worker lease; local executors pass ttl == 0 and
// run leaseless (they cannot die silently — process death takes the
// coordinator and its lease table with it, and the journal is the
// recovery story).
func (s *Server) dispatch(m *managed, worker string, ttl time.Duration) (ci, rep int, l *Lease, ok bool) {
	if s.isDraining() {
		return 0, 0, nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.finished {
		var cell, rep int
		if n := len(m.pending); n > 0 {
			u := m.pending[0]
			m.pending = m.pending[1:]
			cell, rep = u.cell, u.rep
			if !m.c.UnitNeeded(cell, rep) {
				continue // committed or pruned while queued
			}
		} else {
			var more bool
			cell, rep, more = m.c.NextUnit()
			if !more {
				return 0, 0, nil, false
			}
		}
		if res, enc, hit := s.cachedResult(m, cell, rep); hit {
			s.commitLocked(m, cell, rep, res, enc, true)
			continue
		}
		var lease *Lease
		if ttl > 0 {
			lease = s.leases.grant(m.id, cell, rep, worker, ttl)
		}
		return cell, rep, lease, true
	}
	return 0, 0, nil, false
}

// runLocal is one in-process executor: the same dispatch → execute →
// commit loop a remote worker runs, minus HTTP and leases.
func (s *Server) runLocal(m *managed) {
	defer m.wg.Done()
	for {
		ci, rep, _, ok := s.dispatch(m, "local", 0)
		if !ok {
			return
		}
		res, err := m.c.Plan().ExecuteUnit(m.ctx, ci, rep)
		if err != nil {
			if m.ctx.Err() != nil || errors.Is(err, context.Canceled) {
				return // campaign cancelled or finished under us
			}
			m.c.Abort(err)
			m.mu.Lock()
			s.finishLocked(m)
			m.mu.Unlock()
			return
		}
		s.commit(m, ci, rep, res, false)
	}
}

// commit is the locked wrapper around commitLocked.
func (s *Server) commit(m *managed, ci, rep int, res stats.Results, fromCache bool) (committed bool, winning stats.Results, haveWinner bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.commitLocked(m, ci, rep, res, nil, fromCache)
}

// commitLocked lands one result: duplicate detection (first result wins),
// the campaign engine's in-order commit, cache population, progress
// events, and campaign settlement once every cell has stopped. enc is the
// result's stored encoding on a cache hit and nil otherwise; a live result
// is cached with the encoding its journal line was built from.
func (s *Server) commitLocked(m *managed, ci, rep int, res stats.Results, enc []byte, fromCache bool) (committed bool, winning stats.Results, haveWinner bool) {
	if prev, dup := m.c.UnitResult(ci, rep); dup {
		return false, prev, true
	}
	if m.finished {
		return false, stats.Results{}, false
	}
	enc = m.c.CompleteUnitEncoded(ci, rep, res, enc, fromCache)
	if _, landed := m.c.UnitResult(ci, rep); !landed {
		// The engine dropped it (campaign left the running state under us).
		return false, stats.Results{}, false
	}
	if err := m.c.Err(); err != nil {
		// Journal append failed: the campaign is broken; settle as failed.
		s.finishLocked(m)
		return true, res, true
	}
	if !fromCache && s.cache != nil {
		// A faulty cache must not fail the campaign; it only costs reuse.
		_ = s.cache.Save(m.c.Plan().UnitKey(ci, rep), res, enc)
	}
	snap := m.c.Snapshot()
	cell, repIdx := ci, rep
	runEvt := Event{
		Type: EventRunCommitted, Campaign: m.id, Snapshot: &snap,
		Cell: &cell, Rep: &repIdx, Label: m.c.Plan().Cells[ci].Label,
	}
	if res.Streams != nil {
		runEvt.Series = res.Streams.Series
	}
	s.hub.Publish(CampaignTopic(m.id), runEvt)
	if m.c.CellStopped(ci) && !m.stoppedSeen[ci] {
		m.stoppedSeen[ci] = true
		cell := ci
		s.hub.Publish(CampaignTopic(m.id), Event{
			Type: EventCellConverged, Campaign: m.id,
			Cell: &cell, Label: m.c.Plan().Cells[ci].Label,
		})
	}
	if m.c.AllStopped() {
		s.finishLocked(m)
	}
	return true, res, true
}

// finishLocked settles a campaign exactly once: the engine computes the
// final aggregate (or the terminal error), outstanding leases are dropped
// so renewals start failing — that is how remote workers learn the
// campaign ended — the terminal event goes out on the campaign topic, and
// local executors are cancelled: any still-running speculative unit can no
// longer be committed.
func (s *Server) finishLocked(m *managed) {
	if m.finished {
		return
	}
	m.finished = true
	_, _ = m.c.Finish(m.ctx)
	s.leases.dropCampaign(m.id)
	snap := m.c.Snapshot()
	done := Event{
		Type: EventCampaignDone, Campaign: m.id,
		State: snap.State, Snapshot: &snap, Err: snap.Err,
	}
	s.hub.Publish(CampaignTopic(m.id), done)
	close(m.done)
	m.cancel()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for id := range s.campaigns {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	// Numeric-suffix ids ("c1", "c2", …): length-then-value sort is
	// submission order.
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	type listed struct {
		ID string `json:"id"`
		campaign.Snapshot
	}
	out := make([]listed, 0, len(ids))
	for _, id := range ids {
		if m := s.lookup(id); m != nil {
			out = append(out, listed{ID: id, Snapshot: m.c.Snapshot()})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, m.c.Snapshot())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	snap := m.c.Snapshot()
	switch snap.State {
	case campaign.StateDone:
		writeJSON(w, http.StatusOK, m.c.Result())
	case campaign.StateFailed:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("campaign failed: %s", snap.Err))
	default:
		writeJSON(w, http.StatusConflict, snap)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	// Cancel the execution context first so in-flight local runs abort
	// promptly, then settle. Remote workers learn from the dropped leases:
	// their next renewal gets 410 and any commit is refused.
	m.cancel()
	m.mu.Lock()
	s.finishLocked(m)
	m.mu.Unlock()
	m.wg.Wait() // local executors have drained; the campaign is settled
	writeJSON(w, http.StatusOK, m.c.Snapshot())
}

// ---- worker protocol ----

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %w", err))
		return
	}
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for id, m := range s.campaigns {
		if !m.isFinished() {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		m := s.lookup(id)
		if m == nil {
			continue
		}
		ci, rep, l, ok := s.dispatch(m, req.Worker, s.leaseTTL)
		if !ok {
			continue
		}
		writeJSON(w, http.StatusOK, LeaseGrant{
			LeaseID:  l.ID,
			Campaign: m.id,
			SpecHash: m.c.Plan().Hash,
			Cell:     ci,
			Rep:      rep,
			Seed:     m.c.Plan().SeedFor(ci, rep),
			TTLMs:    s.leaseTTL.Milliseconds(),
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding renew request: %w", err))
		return
	}
	if !s.leases.renew(req.LeaseID, s.leaseTTL) {
		httpError(w, http.StatusGone, fmt.Errorf("lease %s is no longer held", req.LeaseID))
		return
	}
	writeJSON(w, http.StatusOK, RenewResponse{TTLMs: s.leaseTTL.Milliseconds()})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding release request: %w", err))
		return
	}
	if l, ok := s.leases.release(req.LeaseID); ok {
		if m := s.lookup(l.Campaign); m != nil {
			m.mu.Lock()
			if !m.finished && m.c.UnitNeeded(l.Cell, l.Rep) {
				m.pending = append(m.pending, unitRef{l.Cell, l.Rep})
			}
			m.mu.Unlock()
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding commit: %w", err))
		return
	}
	m := s.lookup(req.Campaign)
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", req.Campaign))
		return
	}
	plan := m.c.Plan()
	if req.SpecHash != plan.Hash {
		httpError(w, http.StatusConflict,
			fmt.Errorf("commit for spec %.12s…, campaign %s is spec %.12s…", req.SpecHash, m.id, plan.Hash))
		return
	}
	if req.Cell < 0 || req.Cell >= len(plan.Cells) || req.Rep < 0 || req.Rep >= plan.Spec.MaxReps {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unit (cell %d, rep %d) outside the plan", req.Cell, req.Rep))
		return
	}
	if err := req.Results.Streams.Validate(); err != nil {
		// Journaled, a malformed digest would panic the fold that follows
		// and again on every replay.
		httpError(w, http.StatusBadRequest, fmt.Errorf("unit (cell %d, rep %d): %w", req.Cell, req.Rep, err))
		return
	}
	if req.LeaseID != "" {
		s.leases.releaseFor(req.LeaseID, m.id, req.Cell, req.Rep)
	}
	committed, winning, haveWinner := s.commit(m, req.Cell, req.Rep, req.Results, false)
	if committed {
		writeJSON(w, http.StatusOK, CommitResponse{Committed: true})
		return
	}
	// Duplicate (or post-settlement) commit: 409 carrying the winning
	// result, so the committer can reconcile instead of failing.
	resp := CommitResponse{Committed: false}
	if haveWinner {
		resp.Results = &winning
	}
	writeJSON(w, http.StatusConflict, resp)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	plan := m.c.Plan()
	base := plan.Base
	writeJSON(w, http.StatusOK, SpecResponse{
		Spec:     plan.Spec,
		Scenario: &base,
		Hash:     plan.Hash,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ms := make([]*managed, 0, len(s.campaigns))
	for _, m := range s.campaigns {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	st := StatusResponse{Campaigns: len(ms), Leases: s.leases.count("")}
	for _, m := range ms {
		m.mu.Lock()
		if !m.finished {
			st.Running++
		}
		st.Pending += len(m.pending)
		m.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, st)
}

// ---- lifecycle ----

// Shutdown gracefully drains the coordinator: dispatch stops, in-flight
// local runs finish and are journaled, leases are dropped so workers
// re-home, and unfinished campaigns' journals are closed as clean,
// resumable checkpoints (resubmit the same spec after restart to resume).
// When ctx expires first, remaining in-flight runs are force-cancelled —
// the journal then simply holds fewer entries; determinism makes the
// re-run identical.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ms := make([]*managed, 0, len(s.campaigns))
	for _, m := range s.campaigns {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	s.reapOnce.Do(func() { close(s.reapStop) })
	<-s.reapDone

	drained := make(chan struct{})
	go func() {
		for _, m := range ms {
			m.wg.Wait()
		}
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // force-abort in-flight runs
		for _, m := range ms {
			m.wg.Wait()
		}
	}

	for _, m := range ms {
		m.mu.Lock()
		if !m.finished {
			// Suspend, don't settle: the journal is the recovery state.
			m.finished = true
			s.leases.dropCampaign(m.id)
			m.c.CloseJournal()
			close(m.done)
		}
		m.mu.Unlock()
	}
	s.cancelBase()
	return err
}

// Close force-cancels everything immediately (tests, non-graceful exits).
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": strings.TrimSpace(err.Error())})
}
