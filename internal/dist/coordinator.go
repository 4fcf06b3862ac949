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
	// Cache, when non-nil, is the content-addressed result store handed to
	// every campaign: it serves the units it holds before any is leased,
	// and saves every live result.
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

	mu sync.Mutex
	// campaigns is in submission order, and only ever appended to: a copy
	// of the slice taken under mu is a snapshot. byID indexes it.
	campaigns []*managed
	byID      map[string]*managed
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

	// mu orders a lease grant against settle: a unit handed out before the
	// campaign settles gets its lease before settle drops the campaign's
	// leases, so no lease outlives its campaign; and settle runs once.
	// Commits do not take it: the campaign owns every per-unit decision
	// (what runs next, what the store serves, what landed, which cell
	// stopped) and publishes their events under its own lock.
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
		byID:       make(map[string]*managed),
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
	return s.byID[id]
}

// all returns the coordinator's campaigns in submission order.
func (s *Server) all() []*managed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns
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
	// The campaign reports every landed unit under its lock, so the events
	// go out in commit order; m.id is set before Start, and so before any
	// unit lands.
	m := &managed{}
	c, err := campaign.New(spec, campaign.Options{OnProgress: func(p campaign.Progress) { s.publish(m, p) }})
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
	m.c = c
	m.ctx, m.cancel = context.WithCancel(s.base)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		m.cancel()
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
				m.cancel()
				httpError(w, http.StatusConflict,
					fmt.Errorf("campaign %s is already running this spec (journal %s)", other.id, journalPath))
				return
			}
		}
	}
	m.id = fmt.Sprintf("c%d", len(s.campaigns)+1)
	s.campaigns = append(s.campaigns, m)
	s.byID[m.id] = m
	s.mu.Unlock()

	// Start opens and replays the journal; a spec-hash mismatch or a
	// concurrently-locked checkpoint surfaces here, at submission time.
	if err := c.Start(); err != nil {
		c.CloseJournal()
		m.cancel()
		httpError(w, http.StatusConflict, err)
		return
	}

	// Land the leading stored units (and settle a journal that already
	// holds the whole campaign) before any executor spins up: a
	// fully-cached resubmission completes right here with zero leases
	// granted.
	if ci, rep, _, ok := s.dispatch(m, "", 0); ok {
		c.Release(ci, rep) // the first miss waits for an executor
	}
	finished := c.Closed()

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

// dispatch hands out the next unit of a campaign that its store does not
// hold, and settles the campaign when there is none because it is over.
// ttl > 0 grants a worker lease; local executors pass ttl == 0 and run
// leaseless (they cannot die silently — process death takes the
// coordinator and its lease table with it, and the journal is the
// recovery story).
func (s *Server) dispatch(m *managed, worker string, ttl time.Duration) (ci, rep int, l *Lease, ok bool) {
	if s.isDraining() {
		return 0, 0, nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ci, rep, ok = m.c.NextUnit()
	switch {
	case ok && ttl > 0:
		l = s.leases.grant(m.id, ci, rep, worker, ttl)
	case !ok:
		if snap := m.c.Snapshot(); snap.CellsStopped == snap.Cells || snap.Err != "" {
			s.finishLocked(m)
		}
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
			s.finish(m)
			return
		}
		s.commit(m, ci, rep, res, nil)
	}
}

// commit lands one live result through the campaign's single commit call
// — which detects duplicates (first result wins), journals it, saves it
// to the store and commits in replication order — and settles the
// campaign once it is over. enc is the result's encoding when the caller
// holds one (a remote commit's body), nil otherwise.
func (s *Server) commit(m *managed, ci, rep int, res stats.Results, enc []byte) campaign.Outcome {
	out := m.c.CompleteUnitEncoded(ci, rep, res, enc)
	if out.Over {
		s.finish(m)
	}
	return out
}

// publish fans one landed unit out on its campaign's topic. The campaign
// calls it under its lock, so the events go out in commit order.
func (s *Server) publish(m *managed, p campaign.Progress) {
	snap, cell, rep := p.Snapshot, p.Cell, p.Rep
	label := m.c.Plan().Cells[cell].Label
	runEvt := Event{
		Type: EventRunCommitted, Campaign: m.id, Snapshot: &snap,
		Cell: &cell, Rep: &rep, Label: label,
	}
	if p.Results.Streams != nil {
		runEvt.Series = p.Results.Streams.Series
	}
	s.hub.Publish(CampaignTopic(m.id), runEvt)
	if p.Stopped {
		s.hub.Publish(CampaignTopic(m.id), Event{
			Type: EventCellConverged, Campaign: m.id, Cell: &cell, Label: label,
		})
	}
}

// finish is finishLocked under m.mu.
func (s *Server) finish(m *managed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.finishLocked(m)
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
	type listed struct {
		ID string `json:"id"`
		campaign.Snapshot
	}
	ms := s.all()
	out := make([]listed, len(ms))
	for i, m := range ms {
		out[i] = listed{ID: m.id, Snapshot: m.c.Snapshot()}
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
	s.finish(m)
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
	for _, m := range s.all() {
		if m.c.Closed() {
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
	ms := s.all()
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
	ms := s.campaigns
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
