package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhocsim/internal/campaign"
)

// The commit path: what a commit costs beyond running its unit (one round
// trip that also carries the next lease, the worker's own bytes in the
// journal, reused connections) and what it refuses (oversized bodies).

// manySmallSpec has 60 units of about a millisecond each, so a campaign is
// mostly commit and lease traffic.
func manySmallSpec() campaign.Spec {
	nodes, area, dur, sources := 8, 300.0, 5.0, 2
	return campaign.Spec{
		Name:      "dist-test-many",
		Base:      campaign.ScenarioPatch{Nodes: &nodes, AreaW: &area, DurationS: &dur, Sources: &sources},
		Protocols: []string{"DSR", "AODV"},
		MaxReps:   30,
	}
}

// newWrappedServer is newTestServer with wrap around the handler (nil for
// none) and a count of the connections the listener accepted.
func newWrappedServer(t *testing.T, opts ServerOptions, wrap func(http.Handler) http.Handler) (*Server, string, *atomic.Int64) {
	t.Helper()
	s := NewServer(opts)
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewUnstartedServer(h)
	conns := new(atomic.Int64)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL, conns
}

// waitFinished waits, without HTTP, for a campaign to settle.
func waitFinished(t *testing.T, s *Server, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !s.lookup(id).isFinished() {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck: %+v", id, s.lookup(id).c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postJSON posts in and returns the status and the body.
func postJSON(t *testing.T, url string, in any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestWorkerReusesConnections: a worker keeps its slots' connections alive
// for the whole campaign instead of dialling one for most requests. Slots
// dial at once when they start, and a dial that loses the race to a freed
// connection still lands in the pool: hence the 2 spare.
func TestWorkerReusesConnections(t *testing.T) {
	const slots = 8
	spec := manySmallSpec()
	s, base, conns := newWrappedServer(t, ServerOptions{LocalWorkers: -1}, nil)
	// Submitted without a connection, so that every one counted is the
	// worker's.
	body, _ := json.Marshal(spec)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body)))
	var created createdResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	startWorker(t, base, slots)
	waitFinished(t, s, created.ID, time.Minute)
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result differs from single-process")
	}
	if n := conns.Load(); n > slots+2 {
		t.Errorf("%d connections for %d units on %d slots, want at most %d", n, created.MaxRuns, slots, slots+2)
	}
}

// TestOversizedBodiesRefused: a commit body past 16 MiB gets 413 before
// anything is journaled, and its unit stays leasable; a lease request past
// 64 KiB gets 413 too.
func TestOversizedBodiesRefused(t *testing.T) {
	spec := testSpec()
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: t.TempDir()})
	created := submitSpec(t, base, spec)
	var g LeaseGrant
	status, body := postJSON(t, base+"/dist/lease", LeaseRequest{Worker: "w"})
	if status != http.StatusOK || json.Unmarshal(body, &g) != nil {
		t.Fatalf("lease: %d %s", status, body)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
	if err != nil {
		t.Fatal(err)
	}
	commit, err := json.Marshal(CommitRequest{
		LeaseID: g.LeaseID, Worker: "w", Campaign: g.Campaign, SpecHash: g.SpecHash,
		Cell: g.Cell, Rep: g.Rep, Results: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace before the closing brace: valid JSON that only the cap
	// refuses.
	padded := append(commit[:len(commit)-1:len(commit)-1], bytes.Repeat([]byte{' '}, maxResultBytes)...)
	padded = append(padded, '}')
	resp, err := http.Post(base+"/dist/commit", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusRequestEntityTooLarge, nil)
	if n := s.lookup(created.ID).c.Snapshot().RunsDone; n != 0 {
		t.Fatalf("%d runs recorded after a refused commit", n)
	}
	journal, err := os.ReadFile(created.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte("\n")); n != 1 {
		t.Fatalf("journal holds %d lines after a refused commit, want the header alone", n)
	}

	// The unit is still the lease's: give it back and it is leased again.
	if status, body := postJSON(t, base+"/dist/release", ReleaseRequest{LeaseID: g.LeaseID}); status != http.StatusNoContent {
		t.Fatalf("release: %d %s", status, body)
	}
	var again LeaseGrant
	status, body = postJSON(t, base+"/dist/lease", LeaseRequest{Worker: "w"})
	if status != http.StatusOK || json.Unmarshal(body, &again) != nil {
		t.Fatalf("lease after the refused commit: %d %s", status, body)
	}
	if again.Cell != g.Cell || again.Rep != g.Rep {
		t.Fatalf("re-leased unit (%d, %d), want the refused one (%d, %d)", again.Cell, again.Rep, g.Cell, g.Rep)
	}

	big := `{"worker":"` + strings.Repeat("w", maxControlBytes) + `"}`
	for _, path := range []string{"/dist/lease", "/dist/renew", "/dist/release"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusRequestEntityTooLarge, nil)
	}
}

// TestRemoteJournalMatchesLocal: the journal stores the bytes a worker
// committed, and they are the bytes a local executor journals. A hand-made
// commit with indented results is journaled as one compact line that a
// resumed coordinator replays to the same Results.
func TestRemoteJournalMatchesLocal(t *testing.T) {
	spec := testSpec()
	_, remoteBase := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: t.TempDir()})
	remote := submitSpec(t, remoteBase, spec)
	startWorker(t, remoteBase, 1)
	waitDone(t, remoteBase, remote.ID, time.Minute)
	_, localBase := newTestServer(t, ServerOptions{LocalWorkers: 1, JournalDir: t.TempDir()})
	local := submitSpec(t, localBase, spec)
	waitDone(t, localBase, local.ID, time.Minute)
	remoteJournal, err := os.ReadFile(remote.Journal)
	if err != nil {
		t.Fatal(err)
	}
	localJournal, err := os.ReadFile(local.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteJournal, localJournal) {
		t.Fatalf("remote journal (%d bytes) differs from the local one (%d bytes)", len(remoteJournal), len(localJournal))
	}

	dir := t.TempDir()
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1, JournalDir: dir})
	created := submitSpec(t, base, spec)
	var g LeaseGrant
	status, body := postJSON(t, base+"/dist/lease", LeaseRequest{Worker: "w"})
	if status != http.StatusOK || json.Unmarshal(body, &g) != nil {
		t.Fatalf("lease: %d %s", status, body)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(CommitRequest{
		LeaseID: g.LeaseID, Worker: "w", Campaign: g.Campaign, SpecHash: g.SpecHash,
		Cell: g.Cell, Rep: g.Rep, Results: res,
	}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/dist/commit", "application/json", bytes.NewReader(indented))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, nil)
	s.Close() // suspends the campaign and closes its journal

	journal, err := os.ReadFile(created.Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want the header and one run", len(lines))
	}
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"cell":%d,"rep":%d,"seed":%d,"results":%s}`, g.Cell, g.Rep, g.Seed, compact); string(lines[1]) != want {
		t.Errorf("journal line\n%s\nwant the compact line\n%s", lines[1], want)
	}

	s2, base2 := newTestServer(t, ServerOptions{LocalWorkers: 1, JournalDir: dir})
	resumed := submitSpec(t, base2, spec)
	snap := waitDone(t, base2, resumed.ID, time.Minute)
	if snap.RunsFromJournal != 1 {
		t.Errorf("resumed campaign replayed %d runs, want 1", snap.RunsFromJournal)
	}
	if got := s2.lookup(resumed.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("resumed result differs from single-process")
	}
}

// leaseTap counts the 200s of POST /dist/lease and records, for each
// commit, whether it asked for the next lease.
type leaseTap struct {
	mu      sync.Mutex
	leases  int
	commits []bool // CommitRequest.Next, in arrival order
	// onCommit, when set, runs before the first commit is handled.
	onCommit func()
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (tap *leaseTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/dist/lease":
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			h.ServeHTTP(sw, r)
			tap.mu.Lock()
			if sw.status == http.StatusOK {
				tap.leases++
			}
			tap.mu.Unlock()
			return
		case "/dist/commit":
			body, _ := io.ReadAll(r.Body)
			var req struct{ Next bool }
			_ = json.Unmarshal(body, &req)
			tap.mu.Lock()
			tap.commits = append(tap.commits, req.Next)
			first := len(tap.commits) == 1
			tap.mu.Unlock()
			if first && tap.onCommit != nil {
				tap.onCommit()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

// TestNextLeaseRidesCommit: a busy 1-slot worker takes one lease through
// /dist/lease and every later unit from its commit replies. A commit that
// does not ask gets no lease. A worker cancelled while its commit is in
// flight asks for no further lease, gives back the one that commit carried,
// and leaves no lease behind.
func TestNextLeaseRidesCommit(t *testing.T) {
	spec := manySmallSpec()
	tap := &leaseTap{}
	s, base, _ := newWrappedServer(t, ServerOptions{LocalWorkers: -1}, tap.wrap)
	created := submitSpec(t, base, spec)
	stop := startWorker(t, base, 1)
	waitFinished(t, s, created.ID, time.Minute)
	stop()
	if got := s.lookup(created.ID).c.Result(); !reflect.DeepEqual(singleProcessResult(t, spec), got) {
		t.Error("result differs from single-process")
	}
	tap.mu.Lock()
	if tap.leases != 1 || len(tap.commits) != created.MaxRuns {
		t.Errorf("%d leases granted by /dist/lease and %d commits for %d units, want 1 and %d",
			tap.leases, len(tap.commits), created.MaxRuns, created.MaxRuns)
	}
	tap.mu.Unlock()

	// By hand: a commit without next carries no lease, one with next does.
	created = submitSpec(t, base, testSpec())
	plan, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []bool{false, true} {
		var g LeaseGrant
		status, body := postJSON(t, base+"/dist/lease", LeaseRequest{Worker: "w"})
		if status != http.StatusOK || json.Unmarshal(body, &g) != nil {
			t.Fatalf("lease: %d %s", status, body)
		}
		res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
		if err != nil {
			t.Fatal(err)
		}
		var resp CommitResponse
		status, body = postJSON(t, base+"/dist/commit", CommitRequest{
			LeaseID: g.LeaseID, Worker: "w", Campaign: g.Campaign, SpecHash: g.SpecHash,
			Cell: g.Cell, Rep: g.Rep, Results: res, Next: next,
		})
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("commit: %d %s", status, body)
		}
		if (resp.Next != nil) != next {
			t.Fatalf("commit with next=%v answered with lease %+v", next, resp.Next)
		}
		if next {
			postJSON(t, base+"/dist/release", ReleaseRequest{LeaseID: resp.Next.LeaseID})
		}
	}
	deleteCampaign(t, base, created.ID)

	// Cancelled while its first commit is in flight: that commit asked for
	// a lease and got one, which the draining worker gives back.
	drain := &leaseTap{}
	s, base, _ = newWrappedServer(t, ServerOptions{LocalWorkers: -1}, drain.wrap)
	created = submitSpec(t, base, manySmallSpec())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain.onCommit = cancel
	if err := RunWorker(ctx, WorkerOptions{Coordinator: base, Slots: 1, PollInterval: 20 * time.Millisecond, Logf: t.Logf}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	drain.mu.Lock()
	if want := []bool{true}; !reflect.DeepEqual(drain.commits, want) || drain.leases != 1 {
		t.Errorf("draining worker: commits asking for next %v and %d leases, want %v and 1", drain.commits, drain.leases, want)
	}
	drain.mu.Unlock()
	var st StatusResponse
	resp, err := http.Get(base + "/dist/status")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, &st)
	if st.Leases != 0 {
		t.Errorf("%d leases outstanding after the worker drained", st.Leases)
	}
	if done := s.lookup(created.ID).c.Snapshot().RunsDone; done != 1 {
		t.Errorf("%d runs done, want the one committed before the drain", done)
	}
}
