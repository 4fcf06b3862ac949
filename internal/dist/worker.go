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
	opts   WorkerOptions
	base   string
	id     string
	hard   context.Context
	logf   func(string, ...any)
	client *http.Client
}

// slotPlan is one slot's current campaign plan. Campaign ids restart at c1
// in every coordinator process, and a worker outlives coordinator restarts:
// so the plan is keyed by spec hash, not by id. A spec whose plan could not
// be reconstructed keeps its error instead.
type slotPlan struct {
	hash string
	plan *campaign.Plan
	err  error
}

// RunWorker joins a coordinator and executes leased run units until ctx is
// cancelled. Cancelling ctx is the graceful drain: no new leases are
// taken, in-flight runs complete and commit, leases are released, and the
// function returns nil. Cancelling opts.Hard aborts in-flight runs
// immediately (their leases are released so the units re-issue promptly).
// A run whose campaign ended — cancelled, or finished by other workers —
// stops at its next lease renewal, which the coordinator answers 410.
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
	// A slot's requests follow one another, and its heartbeats fall while
	// it runs a unit, so Slots+1 connections carry a worker's traffic. All
	// stay idle between requests (http.DefaultClient keeps two, so a
	// many-slot worker dialled anew for most requests), and no more are
	// dialled for a request that starts before its slot's last connection
	// is back in the pool.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = opts.Slots + 1
	transport.MaxConnsPerHost = opts.Slots + 1
	defer transport.CloseIdleConnections()
	w := &worker{
		opts:   opts,
		base:   strings.TrimRight(opts.Coordinator, "/"),
		id:     opts.ID,
		hard:   hard,
		logf:   logf,
		client: &http.Client{Transport: transport},
	}

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

// runSlot is one lease → execute → commit loop. Each commit asks for the
// slot's next unit, so /dist/lease serves only a slot's first unit and its
// idle polls. Dispatch serves the oldest campaign first, so holding one
// plan per slot fetches a spec about once per campaign.
func (w *worker) runSlot(ctx context.Context) error {
	var cur slotPlan
	var next *LeaseGrant
	for {
		if ctx.Err() != nil {
			if next != nil {
				// Granted as the drain began: give it back at once.
				w.release(next.LeaseID)
			}
			return nil // graceful drain complete
		}
		grant := next
		if grant == nil {
			g, got, err := w.lease(ctx)
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
			grant = &g
		}
		next = w.execute(ctx, *grant, &cur)
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

// execute runs one leased unit end to end and returns the next lease its
// commit carried back (nil when there is none).
func (w *worker) execute(ctx context.Context, grant LeaseGrant, cur *slotPlan) *LeaseGrant {
	plan, err := w.planFor(ctx, grant, cur)
	if err != nil {
		w.logf("worker %s: campaign %s: %v", w.id, grant.Campaign, err)
		w.release(grant.LeaseID)
		return nil
	}
	// Cheap integrity probes on top of the plan-hash comparison.
	if grant.Cell < 0 || grant.Cell >= len(plan.Cells) || grant.Rep < 0 || grant.Rep >= plan.Spec.MaxReps {
		w.logf("worker %s: lease %s outside the plan", w.id, grant.LeaseID)
		w.release(grant.LeaseID)
		return nil
	}
	if seed := plan.SeedFor(grant.Cell, grant.Rep); seed != grant.Seed {
		w.logf("worker %s: lease %s seed mismatch (%d != %d)", w.id, grant.LeaseID, seed, grant.Seed)
		w.release(grant.LeaseID)
		return nil
	}

	// The run aborts on the hard context or a lost lease — an ended
	// campaign drops its leases — never on the soft ctx: a graceful drain
	// lets it finish.
	runCtx, cancelRun := context.WithCancel(w.hard)
	defer cancelRun()

	hbCtx, stopHB := context.WithCancel(runCtx)
	defer stopHB()
	go w.heartbeat(hbCtx, cancelRun, grant, time.Duration(grant.TTLMs)*time.Millisecond)

	res, err := plan.ExecuteUnit(runCtx, grant.Cell, grant.Rep)
	stopHB()
	if err != nil {
		// Aborted (lease lost, hard shutdown): give the unit back so it
		// re-issues promptly rather than waiting out the lease deadline.
		w.release(grant.LeaseID)
		return nil
	}
	return w.commit(ctx, grant, res)
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
// the coordinator's winning copy. Unless ctx (the graceful signal) has
// ended, the commit asks for the slot's next unit and returns its lease.
func (w *worker) commit(ctx context.Context, grant LeaseGrant, res stats.Results) (next *LeaseGrant) {
	req := CommitRequest{
		LeaseID:  grant.LeaseID,
		Worker:   w.id,
		Campaign: grant.Campaign,
		SpecHash: grant.SpecHash,
		Cell:     grant.Cell,
		Rep:      grant.Rep,
		Results:  res,
		Next:     ctx.Err() == nil,
	}
	// Commit must survive a graceful drain (soft ctx already cancelled),
	// so it runs on the hard context, time-boxed.
	ctx, cancel := context.WithTimeout(w.hard, time.Minute)
	defer cancel()
	err := retry(ctx, w.opts.BackoffBase, w.opts.BackoffMax, func() error {
		var resp CommitResponse
		status, body, err := w.post(ctx, "/dist/commit", req, &resp)
		if err != nil {
			return err
		}
		switch {
		case status == http.StatusOK:
			next = resp.Next
			return nil
		case status == http.StatusConflict:
			// Duplicate commit: the coordinator answered with the winning
			// result. Determinism makes it identical to ours; nothing to do.
			next = resp.Next
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
	return next
}

// release gives an unfinished unit back (best-effort: expiry is the
// backstop).
func (w *worker) release(leaseID string) {
	ctx, cancel := context.WithTimeout(w.hard, 5*time.Second)
	defer cancel()
	_, _, _ = w.post(ctx, "/dist/release", ReleaseRequest{LeaseID: leaseID}, nil)
}

// planFor returns the plan a lease runs under: the slot's current plan
// when the spec hashes match, else one expanded from the campaign's fetched
// spec, which becomes the slot's current plan. A plan that cannot be
// reconstructed bit-identically (version skew between worker and
// coordinator binaries) becomes the slot's current error: leases under its
// hash are released immediately instead of executing under a wrong model.
func (w *worker) planFor(ctx context.Context, grant LeaseGrant, cur *slotPlan) (*campaign.Plan, error) {
	if cur.hash == grant.SpecHash {
		return cur.plan, cur.err
	}
	var sr SpecResponse
	err := retry(ctx, w.opts.BackoffBase, w.opts.BackoffMax, func() error {
		status, body, err := w.get(ctx, "/dist/campaigns/"+grant.Campaign+"/spec", &sr)
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
		*cur = slotPlan{hash: sr.Hash, err: fmt.Errorf("spec rejected earlier: %w", err)}
		return nil, err
	}
	if plan.Hash != grant.SpecHash {
		// The id names another campaign than the lease's: the coordinator
		// restarted in between. Nothing is wrong with either spec.
		return nil, fmt.Errorf("spec hash %.12s… does not match lease hash %.12s…", plan.Hash, grant.SpecHash)
	}
	*cur = slotPlan{hash: plan.Hash, plan: plan}
	return plan, nil
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
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
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
