package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// testSpec is a small 2-protocol × 2-rep campaign (4 runs, milliseconds of
// wall clock) used across the end-to-end tests.
func testSpec() campaign.Spec {
	nodes, area, dur, sources := 8, 500.0, 10.0, 2
	return campaign.Spec{
		Name:      "dist-test",
		Base:      campaign.ScenarioPatch{Nodes: &nodes, AreaW: &area, DurationS: &dur, Sources: &sources},
		Protocols: []string{"DSR", "AODV"},
		MaxReps:   2,
	}
}

// biggerSpec has enough units (15) that a campaign is reliably still
// running when a test wants to interfere with it.
func biggerSpec() campaign.Spec {
	nodes, area, dur, sources := 8, 500.0, 30.0, 2
	return campaign.Spec{
		Name:      "dist-test-big",
		Base:      campaign.ScenarioPatch{Nodes: &nodes, AreaW: &area, DurationS: &dur, Sources: &sources},
		Protocols: []string{"DSR", "AODV", "DSDV"},
		MaxReps:   5,
	}
}

func newTestServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	s := NewServer(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL
}

// startWorker runs an in-process worker against a coordinator URL and
// returns a stop function that drains it gracefully.
func startWorker(t *testing.T, base string, slots int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := RunWorker(ctx, WorkerOptions{
			Coordinator:  base,
			Slots:        slots,
			PollInterval: 20 * time.Millisecond,
			BackoffBase:  5 * time.Millisecond,
			BackoffMax:   100 * time.Millisecond,
			Logf:         t.Logf,
		}); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

func submitSpec(t *testing.T, base string, spec campaign.Spec) createdResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return submitJSON(t, base, string(body))
}

// submitJSON posts a spec exactly as a client would write it.
func submitJSON(t *testing.T, base, spec string) createdResponse {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var created createdResponse
	decodeBody(t, resp, http.StatusCreated, &created)
	return created
}

func deleteCampaign(t *testing.T, base, id string) campaign.Snapshot {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	var snap campaign.Snapshot
	decodeBody(t, resp, http.StatusOK, &snap)
	return snap
}

func decodeBody(t *testing.T, resp *http.Response, want int, v any) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("status %d (want %d): %s", resp.StatusCode, want, buf.String())
	}
	if v != nil {
		if err := json.Unmarshal(buf.Bytes(), v); err != nil {
			t.Fatalf("decoding body: %v", err)
		}
	}
}

func waitDone(t *testing.T, base, id string, timeout time.Duration) campaign.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatalf("progress: %v", err)
		}
		var snap campaign.Snapshot
		decodeBody(t, resp, http.StatusOK, &snap)
		switch snap.State {
		case campaign.StateDone:
			return snap
		case campaign.StateFailed, campaign.StateCancelled:
			t.Fatalf("campaign ended %s: %s", snap.State, snap.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpResults(t *testing.T, base, id string) campaign.Result {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	var result campaign.Result
	decodeBody(t, resp, http.StatusOK, &result)
	return result
}

// singleProcessResult runs the spec in-process (no HTTP, no distribution)
// as the determinism reference.
func singleProcessResult(t *testing.T, spec campaign.Spec) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), spec, campaign.Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// TestResultJSONRoundtrip pins down that a campaign Result survives the
// JSON wire encoding bit-identically (reflect.DeepEqual) — the property
// every distributed DeepEqual guarantee in this package rests on.
func TestResultJSONRoundtrip(t *testing.T) {
	ref := singleProcessResult(t, testSpec())
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var back campaign.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*ref, back) {
		t.Errorf("JSON roundtrip perturbed the result:\nref:  %+v\nback: %+v", ref, back)
	}
}

// TestDistributedMatchesSingleProcess is the core determinism claim: a
// campaign executed entirely by remote workers over HTTP aggregates to a
// result reflect.DeepEqual to the single-process in-memory run — worker
// results cross two JSON boundaries on the way, so this also pins down
// that the wire encoding is lossless for every stats field.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)

	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1, Cache: NewMemStore()})
	startWorker(t, base, 2)
	startWorker(t, base, 2)

	created := submitSpec(t, base, spec)
	waitDone(t, base, created.ID, time.Minute)

	m := s.lookup(created.ID)
	if m == nil {
		t.Fatal("campaign disappeared")
	}
	got := m.c.Result()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("distributed result differs from single-process:\nref: %+v\ngot: %+v", ref, got)
	}

	// The HTTP view must decode back to the same value.
	viaHTTP := httpResults(t, base, created.ID)
	if !reflect.DeepEqual(*ref, viaHTTP) {
		t.Errorf("HTTP-decoded result differs from single-process reference")
	}
}

// TestMixedLocalAndRemote runs local executors and remote workers against
// the same campaign; the shared dispatch/commit path must keep the result
// identical.
func TestMixedLocalAndRemote(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)

	s, base := newTestServer(t, ServerOptions{LocalWorkers: 2})
	startWorker(t, base, 2)

	created := submitSpec(t, base, spec)
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("mixed local+remote result differs from single-process")
	}
}

// TestLeaseExpiryReissuesUnit simulates a worker that leases a unit and
// dies silently (no renew, no release, no commit): the reaper must
// re-issue the unit and the campaign must still finish with the correct
// result.
func TestLeaseExpiryReissuesUnit(t *testing.T) {
	spec := testSpec()
	ref := singleProcessResult(t, spec)

	s, base := newTestServer(t, ServerOptions{
		LocalWorkers: -1,
		LeaseTTL:     100 * time.Millisecond,
		ReapInterval: 20 * time.Millisecond,
	})

	created := submitSpec(t, base, spec)

	// The "doomed" worker takes one lease and vanishes.
	var grant LeaseGrant
	resp, err := http.Post(base+"/dist/lease", "application/json",
		bytes.NewReader([]byte(`{"worker":"doomed"}`)))
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	decodeBody(t, resp, http.StatusOK, &grant)
	if s.leases.count("") != 1 {
		t.Fatalf("expected 1 outstanding lease, got %d", s.leases.count(""))
	}

	// A healthy worker joins; once the doomed lease expires its unit is
	// re-issued and the campaign completes.
	startWorker(t, base, 2)
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("result after lease expiry differs from single-process")
	}

	// The dead worker's renewals are now rejected.
	resp, err = http.Post(base+"/dist/renew", "application/json",
		bytes.NewReader([]byte(`{"lease_id":"`+grant.LeaseID+`"}`)))
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	decodeBody(t, resp, http.StatusGone, nil)
}

// TestWorkerHardAbortAndRestart force-aborts a worker mid-campaign (the
// in-process analogue of kill -9 plus a restart) and checks the campaign
// still converges to the single-process result.
func TestWorkerHardAbortAndRestart(t *testing.T) {
	spec := biggerSpec()
	ref := singleProcessResult(t, spec)

	s, base := newTestServer(t, ServerOptions{
		LocalWorkers: -1,
		LeaseTTL:     200 * time.Millisecond,
		ReapInterval: 20 * time.Millisecond,
	})

	created := submitSpec(t, base, spec)
	sub := s.hub.Subscribe(CampaignTopic(created.ID), 64)
	defer sub.Cancel()

	hard, abort := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		// ctx == hard: abort is immediate, not a graceful drain.
		_ = RunWorker(hard, WorkerOptions{
			Coordinator:  base,
			Slots:        2,
			PollInterval: 10 * time.Millisecond,
			BackoffBase:  5 * time.Millisecond,
			Hard:         hard,
		})
	}()

	// Abort the first worker as soon as one run lands.
	deadline := time.After(time.Minute)
	for committed := false; !committed; {
		select {
		case e := <-sub.C():
			if e.Type == EventRunCommitted {
				committed = true
			}
		case <-deadline:
			t.Fatal("no run committed within a minute")
		}
	}
	abort()
	<-firstDone

	startWorker(t, base, 2) // the "restarted" worker
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("result after worker abort+restart differs from single-process")
	}
}

// TestWorkerSurvivesCoordinatorRestart replaces the coordinator behind one
// URL under a running worker. Campaign ids restart at c1 in every
// coordinator process, so the worker must not reuse the old c1's plan for
// a new c1 with a different spec.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	var mu sync.Mutex
	var cur *Server
	var handler http.Handler
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	restart := func() *Server {
		s := NewServer(ServerOptions{LocalWorkers: -1})
		t.Cleanup(s.Close)
		mu.Lock()
		old := cur
		cur, handler = s, s.Handler()
		mu.Unlock()
		if old != nil {
			old.Close()
		}
		return s
	}

	// The first coordinator dies mid-campaign, after the worker has
	// expanded c1's plan.
	s1 := restart()
	startWorker(t, hs.URL, 1)
	created := submitSpec(t, hs.URL, biggerSpec())
	sub := s1.hub.Subscribe(CampaignTopic(created.ID), 64)
	defer sub.Cancel()
	deadline := time.After(time.Minute)
	for committed := false; !committed; {
		select {
		case e := <-sub.C():
			committed = e.Type == EventRunCommitted
		case <-deadline:
			t.Fatal("no run committed within a minute")
		}
	}

	// The second coordinator's c1 is another spec.
	spec := testSpec()
	spec.Protocols = []string{"DSDV"}
	s2 := restart()
	created = submitSpec(t, hs.URL, spec)
	if created.ID != "c1" {
		t.Fatalf("second coordinator named its campaign %s, want c1", created.ID)
	}
	waitDone(t, hs.URL, created.ID, 20*time.Second)
	if got := s2.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result after a coordinator restart differs from single-process")
	}
}

// TestDuplicateCommitConflict checks the first-result-wins rule on the
// wire: the second commit of a unit gets 409 carrying the winning result.
func TestDuplicateCommitConflict(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, testSpec())

	var grant LeaseGrant
	resp, err := http.Post(base+"/dist/lease", "application/json",
		bytes.NewReader([]byte(`{"worker":"w1"}`)))
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	decodeBody(t, resp, http.StatusOK, &grant)

	// Execute the unit the way a worker would: fetch the spec, expand
	// locally, verify the hash, run.
	var sr SpecResponse
	resp, err = http.Get(base + "/dist/campaigns/" + created.ID + "/spec")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	decodeBody(t, resp, http.StatusOK, &sr)
	plan, err := sr.Plan()
	if err != nil {
		t.Fatalf("reconstructing plan: %v", err)
	}
	res, err := plan.ExecuteUnit(context.Background(), grant.Cell, grant.Rep)
	if err != nil {
		t.Fatalf("executing unit: %v", err)
	}

	commit := func() (*http.Response, error) {
		body, _ := json.Marshal(CommitRequest{
			Worker: "w1", Campaign: grant.Campaign, SpecHash: grant.SpecHash,
			Cell: grant.Cell, Rep: grant.Rep, Results: res,
		})
		return http.Post(base+"/dist/commit", "application/json", bytes.NewReader(body))
	}

	resp, err = commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	var first CommitResponse
	decodeBody(t, resp, http.StatusOK, &first)
	if !first.Committed {
		t.Fatalf("first commit not accepted: %+v", first)
	}

	resp, err = commit()
	if err != nil {
		t.Fatalf("second commit: %v", err)
	}
	var second CommitResponse
	decodeBody(t, resp, http.StatusConflict, &second)
	if second.Committed {
		t.Error("duplicate commit claims to have been accepted")
	}
	if second.Results == nil {
		t.Fatal("409 response does not carry the winning result")
	}
	if !reflect.DeepEqual(*second.Results, res) {
		t.Error("winning result in 409 differs from the committed one")
	}

	// A commit under a stale spec hash is rejected before touching state.
	body, _ := json.Marshal(CommitRequest{
		Campaign: grant.Campaign, SpecHash: "deadbeef", Cell: 0, Rep: 1, Results: res,
	})
	resp, err = http.Post(base+"/dist/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stale commit: %v", err)
	}
	decodeBody(t, resp, http.StatusConflict, nil)
}

// TestCommitReleasesOnlyItsOwnLease: a commit carrying another unit's lease
// id must not release that lease, or the unit its holder is running would
// be orphaned; the holder's renewals keep working and the campaign still
// completes to the single-process result.
func TestCommitReleasesOnlyItsOwnLease(t *testing.T) {
	spec := testSpec()
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, spec)

	post := func(path string, in any, want int, out any) {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		decodeBody(t, resp, want, out)
	}
	var a, b LeaseGrant
	post("/dist/lease", LeaseRequest{Worker: "wa"}, http.StatusOK, &a)
	post("/dist/lease", LeaseRequest{Worker: "wb"}, http.StatusOK, &b)

	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	commit := func(g LeaseGrant, leaseID string) {
		t.Helper()
		res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
		if err != nil {
			t.Fatalf("executing unit: %v", err)
		}
		post("/dist/commit", CommitRequest{
			LeaseID: leaseID, Worker: "wa", Campaign: g.Campaign, SpecHash: g.SpecHash,
			Cell: g.Cell, Rep: g.Rep, Results: res,
		}, http.StatusOK, nil)
	}

	// a's unit commits under b's lease id: b's lease must survive it.
	commit(a, b.LeaseID)
	post("/dist/renew", RenewRequest{LeaseID: b.LeaseID}, http.StatusOK, nil)

	// b's own commit releases it.
	commit(b, b.LeaseID)
	post("/dist/renew", RenewRequest{LeaseID: b.LeaseID}, http.StatusGone, nil)

	startWorker(t, base, 1)
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result differs from single-process")
	}
	if n := s.leases.count(""); n != 0 {
		t.Errorf("%d leases outstanding after the campaign finished", n)
	}
}

// TestCommitRejectsMalformedSketch: a commit whose stream digest holds a
// sketch with a mean but no weight — one that would panic the cell's fold —
// gets 400 and changes nothing. The lease stays held, the unit's good commit
// lands, and the campaign completes to the single-process result.
func TestCommitRejectsMalformedSketch(t *testing.T) {
	spec := testSpec()
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, spec)
	post := func(path string, in any, want int) {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		decodeBody(t, resp, want, nil)
	}
	var g LeaseGrant
	body, _ := json.Marshal(LeaseRequest{Worker: "w"})
	resp, err := http.Post(base+"/dist/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, &g)
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams == nil || len(res.Streams.Sketches) == 0 {
		t.Fatal("a campaign unit carries no sketches")
	}
	bad := res
	bad.Streams = &metrics.RunStreams{Sketches: map[string]metrics.SketchState{}}
	for name, st := range res.Streams.Sketches {
		st.Means = append(st.Means, 1)
		bad.Streams.Sketches[name] = st
	}
	commit := func(r stats.Results, want int) {
		t.Helper()
		post("/dist/commit", CommitRequest{
			LeaseID: g.LeaseID, Worker: "w", Campaign: g.Campaign, SpecHash: g.SpecHash,
			Cell: g.Cell, Rep: g.Rep, Results: r,
		}, want)
	}
	commit(bad, http.StatusBadRequest)
	if got := s.lookup(created.ID).c.Snapshot().RunsDone; got != 0 {
		t.Fatalf("%d runs recorded after a rejected commit", got)
	}
	post("/dist/renew", RenewRequest{LeaseID: g.LeaseID}, http.StatusOK)
	commit(res, http.StatusOK)

	startWorker(t, base, 1)
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result differs from single-process")
	}
}

// TestCommitRejectsSeriesOfAnotherGeometry: a commit whose time series has
// 59 delay buckets where its cell's window has 60 gets 400, as a malformed
// sketch does. Were it journaled, the cell's fold would fail the campaign,
// and fail it again on every replay of the journal. The good commits that
// follow complete the campaign to the single-process result.
func TestCommitRejectsSeriesOfAnotherGeometry(t *testing.T) {
	spec := testSpec()
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, spec)
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	commit := func(rep int, r stats.Results, want int) {
		t.Helper()
		body, _ := json.Marshal(CommitRequest{
			Worker: "w", Campaign: created.ID, SpecHash: plan.Hash, Cell: 0, Rep: rep, Results: r,
		})
		resp, err := http.Post(base+"/dist/commit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, want, nil)
	}
	good := make([]stats.Results, 2)
	for rep := range good {
		if good[rep], err = plan.ExecuteUnit(context.Background(), 0, rep); err != nil {
			t.Fatal(err)
		}
	}
	bad := good[1]
	series := good[1].Streams.Series.Clone()
	series.Counts["delay"] = series.Counts["delay"][1:]
	series.Sums["delay"] = series.Sums["delay"][1:]
	bad.Streams = &metrics.RunStreams{Sketches: good[1].Streams.Sketches, Series: series}
	commit(1, bad, http.StatusBadRequest)
	if got := s.lookup(created.ID).c.Snapshot().RunsDone; got != 0 {
		t.Fatalf("%d runs recorded after a rejected commit", got)
	}
	commit(0, good[0], http.StatusOK)
	commit(1, good[1], http.StatusOK)

	startWorker(t, base, 1)
	waitDone(t, base, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result differs from single-process")
	}
}

// TestDeleteWhileRunning cancels a distributed campaign while its only
// worker slot holds one of its units. The lease is the only way the worker
// hears of it: the delete drops the lease, and the next renewal (every
// LeaseTTL/3) gets 410 and aborts the run. That unit would run for seconds,
// so a campaign submitted after the delete finishes in time only if the
// abort freed the slot. No commit for the deleted campaign is accepted.
func TestDeleteWhileRunning(t *testing.T) {
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1, LeaseTTL: 300 * time.Millisecond})
	slow := biggerSpec() // DSR first: 50 000 s of it runs for about 8 s
	dur := 50000.0
	slow.Base.DurationS = &dur
	created := submitSpec(t, base, slow)
	sub := s.hub.Subscribe(CampaignTopic(created.ID), 64)
	defer sub.Cancel()

	startWorker(t, base, 1)
	for deadline := time.Now().Add(time.Minute); s.leases.count(created.ID) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker leased nothing within a minute")
		}
	}

	snap := deleteCampaign(t, base, created.ID)
	if snap.State != campaign.StateCancelled {
		t.Fatalf("state after delete = %s, want cancelled", snap.State)
	}
	if n := s.leases.count(created.ID); n != 0 {
		t.Errorf("campaign still holds %d leases after delete", n)
	}

	start := time.Now()
	next := submitSpec(t, base, testSpec())
	waitDone(t, base, next.ID, time.Minute)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("campaign after the delete took %v: the cancelled run held the slot", took)
	}

	// The campaign topic carries run_committed exactly for accepted
	// commits; none may follow the delete.
	for len(sub.C()) > 0 {
		if e := <-sub.C(); e.Type == EventRunCommitted {
			t.Fatalf("a commit for the deleted campaign was accepted: %+v", e)
		}
	}
	resp, err := http.Get(base + "/campaigns/" + created.ID)
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	var after campaign.Snapshot
	decodeBody(t, resp, http.StatusOK, &after)
	if after.RunsDone != snap.RunsDone || after.State != campaign.StateCancelled {
		t.Errorf("deleted campaign moved on: %+v, was %+v", after, snap)
	}
	resp, err = http.Get(base + "/campaigns/" + created.ID + "/results")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	decodeBody(t, resp, http.StatusConflict, nil) // cancelled: no results

	// Deleting again is idempotent.
	deleteCampaign(t, base, created.ID)
}

// TestCacheResubmitZeroRecompute: after a campaign completes once, an
// identical submission against a fresh coordinator sharing only the result
// cache must complete at submission time with every run served from cache,
// and journal exactly the bytes the live run journaled. Both stores: the
// in-memory one and the directory one a cluster shares.
func TestCacheResubmitZeroRecompute(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		cache Store
	}{{"mem", NewMemStore()}, {"fs", fs}} {
		t.Run(arm.name, func(t *testing.T) {
			testCacheResubmit(t, arm.cache)
		})
	}
}

func testCacheResubmit(t *testing.T, cache Store) {
	spec := testSpec()

	// One executor commits in plan order, the order a cache-served
	// resubmission journals in.
	s1, base1 := newTestServer(t, ServerOptions{LocalWorkers: 1, Cache: cache, JournalDir: t.TempDir()})
	created1 := submitSpec(t, base1, spec)
	waitDone(t, base1, created1.ID, time.Minute)
	want := s1.lookup(created1.ID).c.Result()
	if mem, ok := cache.(*MemStore); ok && mem.Len() == 0 {
		t.Fatal("completed campaign populated no cache entries")
	}

	// Fresh coordinator, no executors of any kind: cache is the only way.
	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: -1, Cache: cache, JournalDir: t.TempDir()})
	created2 := submitSpec(t, base2, spec)
	snap := waitDone(t, base2, created2.ID, 10*time.Second)
	if snap.RunsFromCache != snap.RunsDone || snap.RunsDone != created2.MaxRuns {
		t.Errorf("resubmission: %d runs done, %d from cache, want all %d cached",
			snap.RunsDone, snap.RunsFromCache, created2.MaxRuns)
	}
	if got := s2.lookup(created2.ID).c.Result(); !reflect.DeepEqual(want, got) {
		t.Errorf("cache-served result differs from computed result")
	}
	live, err := os.ReadFile(created1.Journal)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := os.ReadFile(created2.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(live, []byte("\n")); lines != 1+created1.MaxRuns {
		t.Errorf("live journal holds %d lines, want header + %d runs", lines, created1.MaxRuns)
	}
	if !bytes.Equal(live, cached) {
		t.Errorf("cache-served journal (%d bytes) differs from the live run's (%d bytes)", len(cached), len(live))
	}

	// Cross-campaign reuse: a different spec whose grid overlaps (same
	// base, fewer protocols) also starts from the shared units.
	overlap := spec
	overlap.Protocols = []string{"DSR"}
	created3 := submitSpec(t, base2, overlap)
	snap = waitDone(t, base2, created3.ID, 10*time.Second)
	if snap.RunsFromCache != snap.RunsDone {
		t.Errorf("overlapping campaign recomputed %d of %d runs",
			snap.RunsDone-snap.RunsFromCache, snap.RunsDone)
	}
}

// TestSSEStreamMonotone subscribes to a campaign's SSE stream over real
// HTTP and checks the committed-run counts never decrease and the stream
// terminates with campaign_done.
func TestSSEStreamMonotone(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{LocalWorkers: 2})
	created := submitSpec(t, base, testSpec())

	resp, err := http.Get(base + created.Events)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}

	last := -1
	var types []string
	err = readSSE(resp.Body, func(e Event) {
		types = append(types, e.Type)
		if e.Snapshot != nil {
			if e.Snapshot.RunsDone < last {
				t.Errorf("runs_done went backwards: %d after %d", e.Snapshot.RunsDone, last)
			}
			last = e.Snapshot.RunsDone
		}
	})
	if err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	if len(types) == 0 || types[0] != EventSnapshot {
		t.Fatalf("stream did not open with a snapshot: %v", types)
	}
	if types[len(types)-1] != EventCampaignDone {
		t.Fatalf("stream did not end with campaign_done: %v", types)
	}
	if last != 4 {
		t.Errorf("final runs_done = %d, want 4", last)
	}

	// A late subscriber to the finished campaign gets snapshot + done
	// immediately and the stream closes.
	resp, err = http.Get(base + created.Events)
	if err != nil {
		t.Fatalf("late events: %v", err)
	}
	defer resp.Body.Close()
	types = nil
	if err := readSSE(resp.Body, func(e Event) {
		types = append(types, e.Type)
	}); err != nil {
		t.Fatalf("late SSE: %v", err)
	}
	if len(types) != 2 || types[0] != EventSnapshot || types[1] != EventCampaignDone {
		t.Fatalf("late subscription stream = %v, want [snapshot campaign_done]", types)
	}
}

// TestHubNeverReadingSubscribers pins Hub's contract: 100 subscribers that
// read nothing while a campaign runs, each with a buffer too small for the
// campaign's events, still hold campaign_done last once it ends, and the
// committed-run counts they hold never decrease.
func TestHubNeverReadingSubscribers(t *testing.T) {
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, testSpec())
	topic := CampaignTopic(created.ID)
	subs := make([]*Sub, 100)
	for i := range subs {
		subs[i] = s.hub.Subscribe(topic, 1+i%4)
		defer subs[i].Cancel()
	}
	// Publish hands an event to every subscriber in one call, under the
	// hub's lock: once this reader sees campaign_done and that call has
	// returned, every other buffer has it too.
	watch := s.hub.Subscribe(topic, 64)
	defer watch.Cancel()
	startWorker(t, base, 2)
	for deadline := time.After(time.Minute); ; {
		select {
		case e := <-watch.C():
			if e.Type != EventCampaignDone {
				continue
			}
		case <-deadline:
			t.Fatal("no campaign_done within a minute")
		}
		break
	}
	// The reader wakes as soon as its send lands, while that Publish may
	// still be filling the other buffers; taking the lock waits it out.
	s.hub.mu.Lock()
	s.hub.mu.Unlock()
	for i, sub := range subs {
		var types []string
		last := -1
		for len(sub.C()) > 0 {
			e := <-sub.C()
			types = append(types, e.Type)
			if e.Snapshot == nil {
				continue
			}
			if e.Snapshot.RunsDone < last {
				t.Errorf("subscriber %d: runs_done went backwards: %d after %d", i, e.Snapshot.RunsDone, last)
			}
			last = e.Snapshot.RunsDone
		}
		if len(types) == 0 || types[len(types)-1] != EventCampaignDone || last != 4 {
			t.Errorf("subscriber %d (capacity %d) holds %v, runs_done %d; want campaign_done last and 4 runs",
				i, 1+i%4, types, last)
		}
	}
}

// TestGracefulShutdownCheckpoints drains a coordinator mid-campaign and
// checks the journal is left as a clean, resumable checkpoint: a fresh
// coordinator on the same journal dir finishes the campaign and matches
// the uninterrupted result.
func TestGracefulShutdownCheckpoints(t *testing.T) {
	spec := biggerSpec()
	ref := singleProcessResult(t, spec)
	dir := t.TempDir()

	s1 := NewServer(ServerOptions{LocalWorkers: 2, JournalDir: dir})
	hs1 := httptest.NewServer(s1.Handler())
	created := submitSpec(t, hs1.URL, spec)

	sub := s1.hub.Subscribe(CampaignTopic(created.ID), 64)
	deadline := time.After(time.Minute)
	for committed := false; !committed; {
		select {
		case e := <-sub.C():
			if e.Type == EventRunCommitted {
				committed = true
			}
		case <-deadline:
			t.Fatal("no run committed within a minute")
		}
	}
	sub.Cancel()

	// Graceful drain: in-flight runs finish and land in the journal.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	cancel()
	hs1.Close()

	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: 2, JournalDir: dir})
	created2 := submitSpec(t, base2, spec)
	snap := waitDone(t, base2, created2.ID, time.Minute)
	if snap.RunsDone != created2.MaxRuns {
		t.Fatalf("resumed campaign ran %d of %d runs", snap.RunsDone, created2.MaxRuns)
	}
	if got := s2.lookup(created2.ID).c.Result(); !reflect.DeepEqual(ref, got) {
		t.Errorf("resumed-after-shutdown result differs from uninterrupted run")
	}
}

// TestDrainingRefusesWork: during shutdown new submissions get 503 and
// lease requests come back empty.
func TestDrainingRefusesWork(t *testing.T) {
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	created := submitSpec(t, base, testSpec())
	_ = created

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired: Shutdown force-cancels immediately
	_ = s.Shutdown(ctx)

	body, _ := json.Marshal(testSpec())
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit while draining: %v", err)
	}
	decodeBody(t, resp, http.StatusServiceUnavailable, nil)

	resp, err = http.Post(base+"/dist/lease", "application/json",
		bytes.NewReader([]byte(`{"worker":"w"}`)))
	if err != nil {
		t.Fatalf("lease while draining: %v", err)
	}
	decodeBody(t, resp, http.StatusNoContent, nil)
}

// TestStatusEndpoint sanity-checks the introspection view.
func TestStatusEndpoint(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	submitSpec(t, base, testSpec())

	resp, err := http.Get(base + "/dist/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st StatusResponse
	decodeBody(t, resp, http.StatusOK, &st)
	if st.Campaigns != 1 || st.Running != 1 {
		t.Errorf("status = %+v, want 1 campaign running", st)
	}
}

// TestSpecHashGuardsLease checks that a worker whose local expansion
// disagrees with the coordinator's hash refuses the work (version-skew
// protection) rather than executing under a wrong model.
func TestSpecHashGuardsLease(t *testing.T) {
	sr := SpecResponse{Spec: testSpec(), Hash: "not-the-real-hash"}
	plan, err := sr.Spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sr.Scenario = &plan.Base
	if _, err := sr.Plan(); err == nil {
		t.Fatal("SpecResponse.Plan accepted a mismatched hash")
	}
}
