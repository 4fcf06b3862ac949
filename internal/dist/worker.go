package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/stats"
)

// WorkerOptions configure a worker process.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker in leases (default "<hostname>-<pid>").
	ID string
	// Slots is the number of concurrently executed runs (default 1).
	Slots int
	// PollInterval is the idle wait between lease attempts when the
	// coordinator has no work (default 500ms, jittered).
	PollInterval time.Duration
	// BackoffBase/BackoffMax bound the retry schedule for lease, renew and
	// commit calls (defaults 50ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Hard, when non-nil, force-aborts in-flight runs when cancelled. The
	// ctx passed to RunWorker is the graceful signal: it stops new leases
	// but lets in-flight runs finish and commit. Hard is the second-signal
	// escalation.
	Hard context.Context
	// Logf receives worker diagnostics (default: silent).
	Logf func(format string, args ...any)
}

// worker is the client side of the distribution protocol.
type worker struct {
	opts WorkerOptions
	base string
	id   string
	hard context.Context
	logf func(string, ...any)

	mu sync.Mutex
	// Campaign ids restart at c1 in every coordinator process, and a
	// worker outlives coordinator restarts: so a plan is reused only under
	// its spec hash, a rejection is remembered by spec hash, and ended
	// holds only what the current control stream reported.
	plans    map[string]*campaign.Plan // campaign id → locally expanded plan
	bad      map[string]string         // spec hash → why its plan was rejected
	ended    map[string]bool           // campaigns cancelled/finished per control stream
	inflight map[*inflightRun]struct{}
}

type inflightRun struct {
	campaign string
	cancel   context.CancelFunc
}

// RunWorker joins a coordinator and executes leased run units until ctx is
// cancelled. Cancelling ctx is the graceful drain: no new leases are
// taken, in-flight runs complete and commit, leases are released, and the
// function returns nil. Cancelling opts.Hard aborts in-flight runs
// immediately (their leases are released so the units re-issue promptly).
//
// All coordinator calls retry with exponential backoff and full jitter, so
// a worker survives coordinator restarts: it simply re-leases once the
// coordinator is back (the journal and the first-result-wins commit rule
// make any resulting duplication harmless).
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return errors.New("dist: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	hard := opts.Hard
	if hard == nil {
		hard = context.Background()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w := &worker{
		opts:     opts,
		base:     strings.TrimRight(opts.Coordinator, "/"),
		id:       opts.ID,
		hard:     hard,
		logf:     logf,
		plans:    make(map[string]*campaign.Plan),
		bad:      make(map[string]string),
		ended:    make(map[string]bool),
		inflight: make(map[*inflightRun]struct{}),
	}

	// The control listener outlives the graceful drain (an in-flight run
	// still wants cancellation news) but dies with the worker.
	watchCtx, stopWatch := context.WithCancel(hard)
	defer stopWatch()
	go w.watchControl(watchCtx)

	errs := make([]error, opts.Slots)
	var wg sync.WaitGroup
	for i := 0; i < opts.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = w.runSlot(ctx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return nil
}

// runSlot is one lease → execute → commit loop.
func (w *worker) runSlot(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil // graceful drain complete
		}
		grant, got, err := w.lease(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil
			}
			return err
		}
		if !got {
			if !w.idle(ctx) {
				return nil
			}
			continue
		}
		w.execute(ctx, grant)
	}
}

// idle waits out the poll interval (jittered); false means ctx ended.
func (w *worker) idle(ctx context.Context) bool {
	d := w.opts.PollInterval/2 + rand.N(w.opts.PollInterval)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// lease asks for one unit; got == false is a clean "no work right now".
func (w *worker) lease(ctx context.Context) (grant LeaseGrant, got bool, err error) {
	err = retry(ctx, w.opts.BackoffBase, w.opts.BackoffMax, func() error {
		status, body, err := w.post(ctx, "/dist/lease", LeaseRequest{Worker: w.id}, &grant)
		if err != nil {
			return err
		}
		switch {
		case status == http.StatusOK:
			got = true
			return nil
		case status == http.StatusNoContent:
			got = false
			return nil
		case status >= 400 && status < 500:
			return permanent(fmt.Errorf("lease rejected: %d: %s", status, body))
		default:
			return fmt.Errorf("lease: %d: %s", status, body)
		}
	})
	return grant, got, err
}

// execute runs one leased unit end to end.
func (w *worker) execute(ctx context.Context, grant LeaseGrant) {
	if w.isEnded(grant.Campaign) {
		w.release(grant.LeaseID)
		return
	}
	plan, err := w.planFor(ctx, grant.Campaign, grant.SpecHash)
	if err != nil {
		w.logf("worker %s: campaign %s: %v", w.id, grant.Campaign, err)
		w.release(grant.LeaseID)
		return
	}
	// Cheap integrity probes on top of the plan-hash comparison.
	if grant.Cell < 0 || grant.Cell >= len(plan.Cells) || grant.Rep < 0 || grant.Rep >= plan.Spec.MaxReps {
		w.logf("worker %s: lease %s outside the plan", w.id, grant.LeaseID)
		w.release(grant.LeaseID)
		return
	}
	if seed := plan.SeedFor(grant.Cell, grant.Rep); seed != grant.Seed {
		w.logf("worker %s: lease %s seed mismatch (%d != %d)", w.id, grant.LeaseID, seed, grant.Seed)
		w.release(grant.LeaseID)
		return
	}

	// The run aborts on the hard context, a lost lease, or a cancelled
	// campaign — never on the soft ctx: a graceful drain lets it finish.
	runCtx, cancelRun := context.WithCancel(w.hard)
	defer cancelRun()
	h := &inflightRun{campaign: grant.Campaign, cancel: cancelRun}
	if !w.track(h) {
		// Campaign ended between the first check and tracking.
		w.release(grant.LeaseID)
		return
	}
	defer w.untrack(h)

	hbCtx, stopHB := context.WithCancel(runCtx)
	defer stopHB()
	go w.heartbeat(hbCtx, cancelRun, grant, time.Duration(grant.TTLMs)*time.Millisecond)

	res, err := plan.ExecuteUnit(runCtx, grant.Cell, grant.Rep)
	stopHB()
	if err != nil {
		// Aborted (campaign cancelled, lease lost, hard shutdown): give the
		// unit back so it re-issues promptly rather than waiting out the
		// lease deadline.
		w.release(grant.LeaseID)
		return
	}
	w.commit(grant, res)
}

// heartbeat renews the lease at TTL/3 cadence; a 410 means the lease was
// re-issued (or its campaign ended) and this run's work is orphaned — stop
// burning CPU on it.
func (w *worker) heartbeat(ctx context.Context, cancelRun context.CancelFunc, grant LeaseGrant, ttl time.Duration) {
	iv := ttl / 3
	if iv <= 0 {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			attempt, cancel := context.WithTimeout(ctx, iv)
			var lost bool
			err := retry(attempt, w.opts.BackoffBase, iv, func() error {
				status, body, err := w.post(attempt, "/dist/renew", RenewRequest{LeaseID: grant.LeaseID}, nil)
				if err != nil {
					return err
				}
				if status == http.StatusOK {
					return nil
				}
				if status == http.StatusGone || status == http.StatusNotFound {
					lost = true
					return nil
				}
				return fmt.Errorf("renew: %d: %s", status, body)
			})
			cancel()
			if lost {
				w.logf("worker %s: lease %s lost, aborting run", w.id, grant.LeaseID)
				cancelRun()
				return
			}
			_ = err // transient failure: the next tick tries again
		}
	}
}

// commit delivers a result; duplicates (409) reconcile silently against
// the coordinator's winning copy.
func (w *worker) commit(grant LeaseGrant, res stats.Results) {
	// Commit must survive a graceful drain (soft ctx already cancelled),
	// so it runs on the hard context, time-boxed.
	ctx, cancel := context.WithTimeout(w.hard, time.Minute)
	defer cancel()
	req := CommitRequest{
		LeaseID:  grant.LeaseID,
		Worker:   w.id,
		Campaign: grant.Campaign,
		SpecHash: grant.SpecHash,
		Cell:     grant.Cell,
		Rep:      grant.Rep,
		Results:  res,
	}
	err := retry(ctx, w.opts.BackoffBase, w.opts.BackoffMax, func() error {
		var resp CommitResponse
		status, body, err := w.post(ctx, "/dist/commit", req, &resp)
		if err != nil {
			return err
		}
		switch {
		case status == http.StatusOK:
			return nil
		case status == http.StatusConflict:
			// Duplicate commit: the coordinator answered with the winning
			// result. Determinism makes it identical to ours; nothing to do.
			return nil
		case status >= 400 && status < 500:
			return permanent(fmt.Errorf("commit rejected: %d: %s", status, body))
		default:
			return fmt.Errorf("commit: %d: %s", status, body)
		}
	})
	if err != nil {
		w.logf("worker %s: commit (%s cell %d rep %d) failed: %v",
			w.id, grant.Campaign, grant.Cell, grant.Rep, err)
	}
}

// release gives an unfinished unit back (best-effort: expiry is the
// backstop).
func (w *worker) release(leaseID string) {
	ctx, cancel := context.WithTimeout(w.hard, 5*time.Second)
	defer cancel()
	_, _, _ = w.post(ctx, "/dist/release", ReleaseRequest{LeaseID: leaseID}, nil)
}

// planFor returns the locally expanded plan for a campaign, fetching and
// verifying the spec on first use of its id under the lease's spec hash. A
// plan that cannot be reconstructed bit-identically (version skew between
// worker and coordinator binaries) poisons its spec hash locally: leases
// under it are released immediately instead of executing under a wrong
// model.
func (w *worker) planFor(ctx context.Context, id, hash string) (*campaign.Plan, error) {
	w.mu.Lock()
	if why, bad := w.bad[hash]; bad {
		w.mu.Unlock()
		return nil, fmt.Errorf("spec rejected earlier: %s", why)
	}
	if p := w.plans[id]; p != nil && p.Hash == hash {
		w.mu.Unlock()
		return p, nil
	}
	w.mu.Unlock()

	var sr SpecResponse
	err := retry(ctx, w.opts.BackoffBase, w.opts.BackoffMax, func() error {
		status, body, err := w.get(ctx, "/dist/campaigns/"+id+"/spec", &sr)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			return nil
		}
		if status >= 400 && status < 500 {
			return permanent(fmt.Errorf("spec fetch: %d: %s", status, body))
		}
		return fmt.Errorf("spec fetch: %d: %s", status, body)
	})
	if err != nil {
		return nil, err
	}
	plan, err := sr.Plan()
	if err != nil {
		w.mu.Lock()
		w.bad[sr.Hash] = err.Error()
		w.mu.Unlock()
		return nil, err
	}
	if plan.Hash != hash {
		// The id names another campaign than the lease's: the coordinator
		// restarted in between. Nothing is wrong with either spec.
		return nil, fmt.Errorf("spec hash %.12s… does not match lease hash %.12s…", plan.Hash, hash)
	}
	w.mu.Lock()
	w.plans[id] = plan
	w.mu.Unlock()
	return plan, nil
}

// watchControl follows the coordinator's control stream, marking ended
// campaigns and aborting their in-flight runs. The connection is retried
// forever — renewals failing against dropped leases are the fallback
// cancellation signal while the stream is down.
func (w *worker) watchControl(ctx context.Context) {
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/dist/events", nil)
		if err != nil {
			return
		}
		// The default client has no overall Timeout, which would cut this
		// long-lived stream.
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				// A new stream may be a new coordinator, whose campaign
				// ids say nothing of the old one's.
				w.mu.Lock()
				clear(w.ended)
				w.mu.Unlock()
				_ = readSSE(ctx, resp.Body, func(e Event) {
					if e.Type == EventCampaignCancelled || e.Type == EventCampaignDone {
						w.endCampaign(e.Campaign)
					}
				})
			}
			resp.Body.Close()
		}
		if !sleepCtx(ctx, 500*time.Millisecond) {
			return
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d/2 + rand.N(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// endCampaign records a terminal campaign and aborts its in-flight runs.
func (w *worker) endCampaign(id string) {
	w.mu.Lock()
	w.ended[id] = true
	delete(w.plans, id) // free the expanded plan; it will not be needed again
	var cancels []context.CancelFunc
	for h := range w.inflight {
		if h.campaign == id {
			cancels = append(cancels, h.cancel)
		}
	}
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

func (w *worker) isEnded(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ended[id]
}

// track registers an in-flight run; false means its campaign already ended.
func (w *worker) track(h *inflightRun) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ended[h.campaign] {
		return false
	}
	w.inflight[h] = struct{}{}
	return true
}

func (w *worker) untrack(h *inflightRun) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.inflight, h)
}

// post sends a JSON request; out (when non-nil) is decoded from 2xx and
// 409 bodies. The returned body string is for error messages only.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, string, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, "", permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, "", permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *worker) get(ctx context.Context, path string, out any) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return 0, "", permanent(err)
	}
	return w.do(req, out)
}

func (w *worker) do(req *http.Request, out any) (int, string, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, "", err
	}
	if out != nil && len(body) > 0 &&
		(resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusConflict) {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, string(body), fmt.Errorf("decoding %s response: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, strings.TrimSpace(string(body)), nil
}
