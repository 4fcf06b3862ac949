package dist

import (
	"bytes"
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
	opts ServerOptions

	hub    *Hub
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

// managed is one campaign under coordination. Whether it is over, and
// which journal it writes, are the campaign's own state (Closed,
// JournalPath).
type managed struct {
	id string
	c  *campaign.Campaign

	ctx    context.Context
	cancel context.CancelFunc

	// mu serializes dispatch, commit and finish for this campaign. The
	// campaign owns every per-unit decision (what runs next, what landed,
	// which cell stopped); this lock keeps the cache walk, the event
	// fan-out order — which is what makes SSE run counts monotone — and
	// settlement in step with them.
	mu sync.Mutex

	wg sync.WaitGroup // local executors
}

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
		hub:        NewHub(),
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
				s.release(l)
			}
		}
	}
}

// release hands the unit of an expired or returned lease back to its
// campaign's re-issue queue.
func (s *Server) release(l *Lease) {
	if m := s.lookup(l.Campaign); m != nil {
		m.c.Release(l.Cell, l.Rep)
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

// Request body caps, so one request cannot make the coordinator buffer
// arbitrary input. maxSpecBytes (POST /campaigns) is ~1000× the largest
// in-tree spec. maxResultBytes bounds a commit body, and a worker reads
// replies up to the same size; a unit's results are about 5 KB. Lease,
// renew and release bodies are a few ids.
const (
	maxSpecBytes    = 1 << 20
	maxResultBytes  = 16 << 20
	maxControlBytes = 64 << 10
)

// decodeRequest decodes r's JSON body, at most limit bytes, into v. On
// failure it answers as decodeError does and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		decodeError(w, what, err)
	}
	return err == nil
}

// decodeError answers a body that did not decode: 413 when it passed its
// cap, 400 otherwise.
func decodeError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, fmt.Errorf("decoding %s: %w", what, err))
}

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
		decodeError(w, "spec", err)
		return
	}
	c, err := campaign.New(spec, campaign.Options{})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.opts.Cache != nil {
		c.SetStore(s.opts.Cache)
	}
	journalPath := ""
	if s.opts.JournalDir != "" {
		// Keyed by spec hash, not campaign id: resubmitting a spec resumes
		// its own checkpoint, distinct specs can never collide.
		journalPath = filepath.Join(s.opts.JournalDir, c.Plan().Hash[:16]+".jsonl")
		c.SetJournalPath(journalPath)
	}

	ctx, cancel := context.WithCancel(s.base)
	m := &managed{c: c, ctx: ctx, cancel: cancel}

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
			if other.c.JournalPath() == journalPath && !other.c.Closed() {
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
		c.CloseJournal()
		cancel()
		httpError(w, http.StatusConflict, err)
		return
	}

	// Drain any leading cache hits (and a journal that already holds the
	// whole campaign) before any executor spins up: a fully-cached
	// resubmission completes right here with zero leases granted.
	m.mu.Lock()
	if snap := c.Snapshot(); snap.CellsStopped == snap.Cells || snap.Err != "" {
		s.finishLocked(m)
	} else if ci, rep, ok := s.nextLocked(m); ok {
		c.Release(ci, rep) // the first miss waits for an executor
	}
	finished := c.Closed()
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

// cachedResult consults the content-addressed store and returns a hit with
// its stored encoding (possibly nil) and its key; cache faults degrade to
// misses.
func (s *Server) cachedResult(m *managed, ci, rep int) (res stats.Results, enc []byte, key string, hit bool) {
	if s.opts.Cache == nil {
		return res, nil, "", false
	}
	plan := m.c.Plan()
	key = plan.UnitKey(ci, rep)
	got, enc, found, err := s.opts.Cache.Load(key, plan.SeriesGeometry(ci))
	if err != nil || !found {
		return res, nil, "", false
	}
	return got, enc, key, true
}

// nextLocked walks the campaign's dispatch order (released units first,
// then the cursor), committing cache hits, and returns the first unit that
// must run. Submission calls it too, so a fully-cached campaign completes
// without any worker, while dispatch stays lazy otherwise: early-stop
// decisions prune speculative work before it is ever leased. The journal
// holds the sweep's cache-hit lines and writes them in one Write before
// the sweep returns; a failed write fails the campaign like a failed
// append.
func (s *Server) nextLocked(m *managed) (ci, rep int, ok bool) {
	ci, rep, ok = s.sweepLocked(m)
	if m.c.FlushJournal() != nil {
		s.finishLocked(m)
		return 0, 0, false
	}
	return ci, rep, ok
}

// sweepLocked is nextLocked's walk, before the held lines are written.
func (s *Server) sweepLocked(m *managed) (ci, rep int, ok bool) {
	for !m.c.Closed() {
		if ci, rep, ok = m.c.NextUnit(); !ok {
			return 0, 0, false
		}
		res, enc, key, hit := s.cachedResult(m, ci, rep)
		if !hit {
			return ci, rep, true
		}
		s.commitLocked(m, ci, rep, res, enc, key, true)
	}
	return 0, 0, false
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
	if ci, rep, ok = s.nextLocked(m); ok && ttl > 0 {
		l = s.leases.grant(m.id, ci, rep, worker, ttl)
	}
	return ci, rep, l, ok
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
		s.commit(m, ci, rep, res, nil)
	}
}

// commit is the locked wrapper around commitLocked for a live result,
// which is cached under its unit key, hashed before the lock is taken.
func (s *Server) commit(m *managed, ci, rep int, res stats.Results, enc []byte) campaign.Outcome {
	key := ""
	if s.opts.Cache != nil {
		key = m.c.Plan().UnitKey(ci, rep)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.commitLocked(m, ci, rep, res, enc, key, false)
}

// commitLocked lands one result through the campaign's single commit call
// — which detects duplicates (first result wins), journals and commits in
// replication order — then populates the cache, publishes progress events
// and settles the campaign once it is done or failed. enc is the result's
// encoding when the caller holds one — a cache hit's stored bytes, a remote
// commit's body — and nil otherwise; key is the unit key of a hit, or the
// one a live result is cached under with the encoding its journal line was
// built from ("" without a cache).
func (s *Server) commitLocked(m *managed, ci, rep int, res stats.Results, enc []byte, key string, fromCache bool) campaign.Outcome {
	out := m.c.CompleteUnitEncoded(ci, rep, res, enc, key, fromCache)
	if !out.Landed {
		return out
	}
	if out.Failed {
		// A journal append failed, say: the campaign is broken; settle it.
		s.finishLocked(m)
		return out
	}
	if !fromCache && key != "" {
		// A faulty cache must not fail the campaign; it only costs reuse.
		_ = s.opts.Cache.Save(key, res, out.Enc)
	}
	snap, cell, repIdx := out.Snapshot, ci, rep
	runEvt := Event{
		Type: EventRunCommitted, Campaign: m.id, Snapshot: &snap,
		Cell: &cell, Rep: &repIdx, Label: m.c.Plan().Cells[ci].Label,
	}
	if res.Streams != nil {
		runEvt.Series = res.Streams.Series
	}
	s.hub.Publish(CampaignTopic(m.id), runEvt)
	if out.Stopped {
		s.hub.Publish(CampaignTopic(m.id), Event{
			Type: EventCellConverged, Campaign: m.id,
			Cell: &cell, Label: m.c.Plan().Cells[ci].Label,
		})
	}
	if out.Done {
		s.finishLocked(m)
	}
	return out
}

// finishLocked settles a campaign exactly once: the engine computes the
// final aggregate (or the terminal error), outstanding leases are dropped
// so renewals start failing — that is how remote workers learn the
// campaign ended — the terminal event goes out on the campaign topic, and
// local executors are cancelled: any still-running speculative unit can no
// longer be committed.
func (s *Server) finishLocked(m *managed) {
	if m.c.Closed() {
		return
	}
	_, _ = m.c.Finish(m.ctx)
	s.leases.dropCampaign(m.id)
	snap := m.c.Snapshot()
	done := Event{
		Type: EventCampaignDone, Campaign: m.id,
		State: snap.State, Snapshot: &snap, Err: snap.Err,
	}
	s.hub.Publish(CampaignTopic(m.id), done)
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
	if !decodeRequest(w, r, maxControlBytes, "lease request", &req) {
		return
	}
	if g := s.leaseNext(req.Worker); g != nil {
		writeJSON(w, http.StatusOK, g)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// leaseNext grants worker a lease on the next unit of the oldest campaign
// that has one, or returns nil when none has: the answer to a lease
// request, and the next unit a commit asks for.
func (s *Server) leaseNext(worker string) *LeaseGrant {
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for id, m := range s.campaigns {
		if !m.c.Closed() {
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
		ci, rep, l, ok := s.dispatch(m, worker, s.opts.LeaseTTL)
		if !ok {
			continue
		}
		return &LeaseGrant{
			LeaseID:  l.ID,
			Campaign: m.id,
			SpecHash: m.c.Plan().Hash,
			Cell:     ci,
			Rep:      rep,
			Seed:     m.c.Plan().SeedFor(ci, rep),
			TTLMs:    s.opts.LeaseTTL.Milliseconds(),
		}
	}
	return nil
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeRequest(w, r, maxControlBytes, "renew request", &req) {
		return
	}
	if !s.leases.renew(req.LeaseID, s.opts.LeaseTTL) {
		httpError(w, http.StatusGone, fmt.Errorf("lease %s is no longer held", req.LeaseID))
		return
	}
	writeJSON(w, http.StatusOK, RenewResponse{TTLMs: s.opts.LeaseTTL.Milliseconds()})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeRequest(w, r, maxControlBytes, "release request", &req) {
		return
	}
	if l, ok := s.leases.release(req.LeaseID); ok {
		s.release(l)
	}
	w.WriteHeader(http.StatusNoContent)
}

// commitBody is a CommitRequest as the coordinator reads it: the results
// stay the bytes the worker sent, for the journal and the cache to store
// as they are, and are decoded from those.
type commitBody struct {
	CommitRequest
	Results json.RawMessage `json:"results"`
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var body commitBody
	if !decodeRequest(w, r, maxResultBytes, "commit", &body) {
		return
	}
	req := body.CommitRequest
	if len(body.Results) > 0 {
		if err := json.Unmarshal(body.Results, &req.Results); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding commit results: %w", err))
			return
		}
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
	if err := req.Results.Streams.Check(plan.SeriesGeometry(req.Cell)); err != nil {
		// Journaled, a malformed sketch would panic the cell's fold at
		// settle, and a series of another geometry fail it, on every replay
		// too. The commit path checks nothing more: results enter here,
		// from the journal and from a file cache, and each checks them.
		httpError(w, http.StatusBadRequest, fmt.Errorf("unit (cell %d, rep %d): %w", req.Cell, req.Rep, err))
		return
	}
	if req.LeaseID != "" {
		s.leases.releaseFor(req.LeaseID, m.id, req.Cell, req.Rep)
	}
	status, resp := http.StatusOK, CommitResponse{Committed: true}
	if out := s.commit(m, req.Cell, req.Rep, req.Results, journalForm(body.Results)); !out.Landed {
		// Duplicate (or post-settlement) commit: 409 carrying the winning
		// result, so the committer can reconcile instead of failing.
		status, resp = http.StatusConflict, CommitResponse{Results: out.Winner}
	}
	if req.Next {
		resp.Next = s.leaseNext(req.Worker)
	}
	writeJSON(w, status, resp)
}

// journalForm returns a commit's results bytes as the journal embeds them —
// compact, so they hold no newline — or nil when they are not an object (an
// absent or null results field), which the campaign then encodes itself.
func journalForm(raw json.RawMessage) []byte {
	if len(raw) == 0 || raw[0] != '{' {
		return nil
	}
	if !bytes.ContainsAny(raw, " \t\r\n") {
		return raw
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil // unreachable: raw decoded
	}
	return buf.Bytes()
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
		if !m.c.Closed() {
			st.Running++
		}
		st.Pending += m.c.Released()
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
		if !m.c.Closed() {
			// Suspend, don't settle: the journal is the recovery state.
			s.leases.dropCampaign(m.id)
			m.c.CloseJournal()
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
