package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"adhocsim"
	"adhocsim/internal/campaign"
	"adhocsim/internal/dist"
)

// pollInterval paces the progress poller and an idle worker slot. It stays
// well above the 2 ms floor so that polling never becomes the load.
const pollInterval = 4 * time.Millisecond

// coordinator is one dist.Server on a loopback listener with its own
// journal directory. close releases all three on every path.
type coordinator struct {
	srv     *adhocsim.DistServer
	hs      *http.Server
	base    string
	journal string
}

func startCoordinator(store dist.Store, outDir string) (*coordinator, error) {
	journal, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(journal)
		return nil, err
	}
	srv := adhocsim.NewDistServer(adhocsim.DistServerOptions{LocalWorkers: -1, JournalDir: journal, Cache: store})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) // returns once close runs hs.Close
	return &coordinator{srv: srv, hs: hs, base: "http://" + ln.Addr().String(), journal: journal}, nil
}

func (c *coordinator) close() {
	c.srv.Close()
	c.hs.Close()
	os.RemoveAll(c.journal)
}

// httpJSON sends one request and decodes a JSON reply of the wanted status.
func httpJSON(client *http.Client, method, url string, in any, want int, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

type created struct {
	ID      string `json:"id"`
	MaxRuns int    `json:"max_runs"`
}

// waitDone polls a campaign's snapshot until it settles.
func waitDone(client *http.Client, base, id string) (campaign.Snapshot, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		var snap campaign.Snapshot
		if _, err := httpJSON(client, http.MethodGet, base+"/campaigns/"+id, nil, http.StatusOK, &snap); err != nil {
			return snap, err
		}
		switch snap.State {
		case campaign.StateDone:
			return snap, nil
		case campaign.StateFailed, campaign.StateCancelled:
			return snap, fmt.Errorf("campaign ended %s: %s", snap.State, snap.Err)
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("campaign stuck: %+v", snap)
		}
		time.Sleep(pollInterval)
	}
}

// sseWatch follows one campaign's event stream on its own goroutine.
type sseWatch struct {
	cancel   context.CancelFunc
	done     chan struct{}
	events   int
	terminal bool
}

func watchSSE(client *http.Client, base, id string) *sseWatch {
	ctx, cancel := context.WithCancel(context.Background())
	w := &sseWatch{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/campaigns/"+id+"/events", nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "event:") {
				continue
			}
			w.events++
			if strings.TrimSpace(strings.TrimPrefix(line, "event:")) == dist.EventCampaignDone {
				w.terminal = true
			}
		}
	}()
	return w
}

// finish waits for the stream to end by itself (the server closes it after
// the terminal event) and cuts it off after two seconds otherwise.
func (w *sseWatch) finish() {
	select {
	case <-w.done:
	case <-time.After(2 * time.Second):
		w.cancel()
		<-w.done
	}
	w.cancel()
}

// clusterOut is what one pass through the service yields.
type clusterOut struct {
	Units         int
	Setups        []time.Duration // coordinator + worker start and submit → 201
	PhaseA        time.Duration   // submit → done
	PhaseB        []time.Duration // resubmit → done, all from cache
	Mallocs       uint64          // process-wide, over phase A
	Bytes         uint64
	RunsFromCache int // of the last resubmission
	SSEEvents     int
	LeaseRTT      []time.Duration // traced passes only
	CommitRTT     []time.Duration
	Reissued      int
	Rec           *recorder
	Failures      []string
}

func (o *clusterOut) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// clusterSlots is the worker's concurrency: never more executing goroutines
// than CPUs, and two at most so that the result is comparable across hosts.
func clusterSlots() int { return min(runtime.NumCPU(), 2) }

// startWorker runs the product's worker (or, when tw is non-nil, the
// benchmark's own traced loop) against base and returns its stop function,
// which waits until every slot has ended.
func startWorker(base string, slots int, tw *tracedWorker) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if tw != nil {
			tw.run(ctx, base, slots)
			return
		}
		_ = adhocsim.RunDistWorker(ctx, adhocsim.DistWorkerOptions{
			Coordinator: base, ID: "bench", Slots: slots, PollInterval: pollInterval,
		})
	}()
	return func() { cancel(); <-done }
}

// runCluster drives spec through one coordinator and one worker over
// loopback HTTP (phase A), then resubmits it to fresh coordinators that
// share the result store (phase B), minResubmits times and on until budget
// has passed since the submission. ref is the in-process result every HTTP
// result must equal. extraSetups throw-away set-ups run first, so that
// setup_s is a median and not a single shot.
func runCluster(spec campaign.Spec, ref *campaign.Result, outDir string, traced bool, extraSetups, minResubmits int, budget time.Duration) clusterOut {
	var out clusterOut
	client := &http.Client{}
	defer client.CloseIdleConnections()
	slots := clusterSlots()
	store := dist.NewMemStore()

	var tw *tracedWorker
	if traced {
		tw = newTracedWorker(client)
	}
	// setUp starts a coordinator on st and a worker and submits the spec.
	setUp := func(st dist.Store, tw *tracedWorker) (*coordinator, func(), created, error) {
		start := time.Now()
		co, err := startCoordinator(st, outDir)
		if err != nil {
			return nil, nil, created{}, err
		}
		stop := startWorker(co.base, slots, tw)
		var cr created
		if _, err := httpJSON(client, http.MethodPost, co.base+"/campaigns", spec, http.StatusCreated, &cr); err != nil {
			stop()
			co.close()
			return nil, nil, cr, err
		}
		out.Setups = append(out.Setups, time.Since(start))
		return co, stop, cr, nil
	}
	for i := 0; i < extraSetups; i++ {
		co, stop, cr, err := setUp(dist.NewMemStore(), nil)
		if err != nil {
			out.failf("set-up: %v", err)
			return out
		}
		_, _ = httpJSON(client, http.MethodDelete, co.base+"/campaigns/"+cr.ID, nil, http.StatusOK, nil)
		stop()
		co.close()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	co, stop, cr, err := setUp(store, tw)
	if err != nil {
		out.failf("set-up: %v", err)
		return out
	}
	submitted := time.Now()
	out.Units = cr.MaxRuns
	sse := watchSSE(client, co.base, cr.ID)
	snap, err := waitDone(client, co.base, cr.ID)
	out.PhaseA = time.Since(submitted)
	runtime.ReadMemStats(&after)
	out.Mallocs, out.Bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	sse.finish()
	stop()
	out.SSEEvents = sse.events
	if err != nil {
		out.failf("phase A: %v", err)
	} else {
		if !sse.terminal {
			out.failf("phase A: SSE stream ended without %s", dist.EventCampaignDone)
		}
		if snap.RunsDone != cr.MaxRuns || snap.RunsFromCache != 0 {
			out.failf("phase A: %d runs done, %d from cache, want %d and 0", snap.RunsDone, snap.RunsFromCache, cr.MaxRuns)
		}
		if err := checkResult(client, co.base, cr.ID, ref); err != nil {
			out.failf("phase A: %v", err)
		}
	}
	co.close()
	if tw != nil {
		out.Rec, out.LeaseRTT, out.CommitRTT, out.Reissued = tw.collect()
		if out.Reissued > 0 {
			out.failf("phase A: %d units were issued more than once", out.Reissued)
		}
	}
	if len(out.Failures) > 0 {
		return out
	}

	for i := 0; i < minResubmits || time.Since(submitted) < budget; i++ {
		d, fromCache, err := resubmit(client, spec, ref, store, outDir)
		out.PhaseB = append(out.PhaseB, d)
		out.RunsFromCache = fromCache
		if err != nil {
			out.failf("phase B: %v", err)
			break
		}
	}
	return out
}

// checkResult fetches a finished campaign's aggregate and compares it with
// the in-process reference.
func checkResult(client *http.Client, base, id string, ref *campaign.Result) error {
	var got campaign.Result
	if _, err := httpJSON(client, http.MethodGet, base+"/campaigns/"+id+"/results", nil, http.StatusOK, &got); err != nil {
		return err
	}
	if !reflect.DeepEqual(&got, ref) {
		return errors.New("HTTP result differs from in-process RunCampaign")
	}
	return nil
}

// resubmit sends spec to a fresh coordinator that has no worker and shares
// only the store, so it can finish only from cache, and checks that it did.
func resubmit(client *http.Client, spec campaign.Spec, ref *campaign.Result, store dist.Store, outDir string) (d time.Duration, fromCache int, err error) {
	co, err := startCoordinator(store, outDir)
	if err != nil {
		return 0, 0, err
	}
	defer co.close()
	start := time.Now()
	var cr created
	if _, err := httpJSON(client, http.MethodPost, co.base+"/campaigns", spec, http.StatusCreated, &cr); err != nil {
		return 0, 0, err
	}
	var snap campaign.Snapshot
	if _, err := httpJSON(client, http.MethodGet, co.base+"/campaigns/"+cr.ID, nil, http.StatusOK, &snap); err != nil {
		return 0, 0, err
	}
	d = time.Since(start)
	if snap.State != campaign.StateDone || snap.RunsFromCache != cr.MaxRuns {
		return d, snap.RunsFromCache, fmt.Errorf("state %s with %d of %d runs from cache", snap.State, snap.RunsFromCache, cr.MaxRuns)
	}
	return d, snap.RunsFromCache, checkResult(client, co.base, cr.ID, ref)
}

// tracedWorker is the benchmark's own worker loop for the traced pass: the
// same lease → execute → commit protocol as dist.RunWorker, with every HTTP
// call and every unit a span, and a count of grants per unit.
type tracedWorker struct {
	client *http.Client

	mu        sync.Mutex
	plans     map[string]*campaign.Plan
	grants    map[[2]int]int
	recs      []*recorder
	leaseRTT  []time.Duration
	commitRTT []time.Duration
}

func newTracedWorker(client *http.Client) *tracedWorker {
	return &tracedWorker{client: client, plans: make(map[string]*campaign.Plan), grants: make(map[[2]int]int)}
}

func (tw *tracedWorker) run(ctx context.Context, base string, slots int) {
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tw.slot(ctx, base)
		}()
	}
	wg.Wait()
}

func (tw *tracedWorker) slot(ctx context.Context, base string) {
	rec := newRecorder()
	var leaseRTT, commitRTT []time.Duration
	defer func() {
		tw.mu.Lock()
		tw.recs = append(tw.recs, rec)
		tw.leaseRTT = append(tw.leaseRTT, leaseRTT...)
		tw.commitRTT = append(tw.commitRTT, commitRTT...)
		tw.mu.Unlock()
	}()
	for ctx.Err() == nil {
		var grant dist.LeaseGrant
		rec.begin(spanLease)
		status, err := httpJSON(tw.client, http.MethodPost, base+"/dist/lease", dist.LeaseRequest{Worker: "bench"}, http.StatusOK, &grant)
		rtt := rec.end()
		if status != http.StatusOK {
			// 204: nothing to lease right now (or the coordinator is gone).
			select {
			case <-ctx.Done():
			case <-time.After(pollInterval):
			}
			continue
		}
		if err != nil {
			return
		}
		leaseRTT = append(leaseRTT, rtt)
		rec.op = grant.Cell<<16 | grant.Rep
		plan, err := tw.plan(rec, base, grant.Campaign)
		if err != nil {
			return
		}
		rec.begin(spanExecuteUnit)
		res, err := plan.ExecuteUnit(ctx, grant.Cell, grant.Rep)
		rec.end()
		if err != nil {
			return
		}
		rec.begin(spanCommit)
		_, err = httpJSON(tw.client, http.MethodPost, base+"/dist/commit", dist.CommitRequest{
			LeaseID: grant.LeaseID, Worker: "bench", Campaign: grant.Campaign, SpecHash: grant.SpecHash,
			Cell: grant.Cell, Rep: grant.Rep, Results: res,
		}, http.StatusOK, nil)
		rtt = rec.end()
		if err != nil {
			return
		}
		commitRTT = append(commitRTT, rtt)
		tw.mu.Lock()
		tw.grants[[2]int{grant.Cell, grant.Rep}]++
		tw.mu.Unlock()
	}
}

// plan fetches and expands a campaign's spec once.
func (tw *tracedWorker) plan(rec *recorder, base, id string) (*campaign.Plan, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if p := tw.plans[id]; p != nil {
		return p, nil
	}
	var sr dist.SpecResponse
	rec.begin(spanSpecFetch)
	_, err := httpJSON(tw.client, http.MethodGet, base+"/dist/campaigns/"+id+"/spec", nil, http.StatusOK, &sr)
	rec.end()
	if err != nil {
		return nil, err
	}
	p, err := sr.Plan()
	if err != nil {
		return nil, err
	}
	tw.plans[id] = p
	return p, nil
}

// collect merges the slots' recorders; call it after the worker stopped.
func (tw *tracedWorker) collect() (rec *recorder, leaseRTT, commitRTT []time.Duration, reissued int) {
	rec = tw.recs[0]
	for _, o := range tw.recs[1:] {
		rec.merge(o)
	}
	for _, n := range tw.grants {
		reissued += n - 1
	}
	return rec, tw.leaseRTT, tw.commitRTT, reissued
}
