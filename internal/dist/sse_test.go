package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocsim/internal/campaign"
)

// readSSE consumes a server-sent-events stream, invoking onEvent for every
// complete event until the stream ends.
func readSSE(body io.Reader, onEvent func(Event)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				var e Event
				if err := json.Unmarshal(data.Bytes(), &e); err == nil {
					onEvent(e)
				}
				data.Reset()
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		default:
			// event: lines and comments — the type travels inside the JSON
			// payload as well.
		}
	}
	return sc.Err()
}

// TestCancelledStreamEndsOnCampaignDone: a campaign deleted while a client
// follows its event stream ends that stream the way every other terminal
// state does, on campaign_done carrying the state and the final snapshot.
func TestCancelledStreamEndsOnCampaignDone(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{})
	created := submitJSON(t, base, longSpecJSON)

	resp, err := http.Get(base + created.Events)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	// Room for the whole stream, so the reader never blocks on a test that
	// gave up.
	events := make(chan Event, 64)
	go func() {
		defer close(events)
		_ = readSSE(resp.Body, func(e Event) { events <- e })
	}()
	next := func() (Event, bool) {
		t.Helper()
		select {
		case e, ok := <-events:
			return e, ok
		case <-time.After(10 * time.Second):
			t.Fatal("event stream neither sent nor closed within 10s")
			return Event{}, false
		}
	}

	// The snapshot is written after the stream subscribed, so the delete
	// cannot fall before the subscription.
	if e, _ := next(); e.Type != EventSnapshot || e.State != campaign.StateRunning {
		t.Fatalf("stream opened with %+v, want a running snapshot", e)
	}
	deleteCampaign(t, base, created.ID)

	var types []string
	var last Event
	for e, ok := next(); ok; e, ok = next() {
		types = append(types, e.Type)
		last = e
	}
	if len(types) == 0 || last.Type != EventCampaignDone {
		t.Fatalf("cancelled stream ended with %v, want campaign_done last", types)
	}
	if last.State != campaign.StateCancelled || last.Snapshot == nil || last.Snapshot.State != campaign.StateCancelled {
		t.Fatalf("terminal event %+v lacks the cancelled state or its snapshot", last)
	}
}

// gatedWriter is a streaming ResponseWriter whose first Flush, the one
// that sends an event stream's headers, waits for gate. Every Flush
// reports on flushed.
type gatedWriter struct {
	header  http.Header
	gate    chan struct{}
	flushed chan struct{}

	mu      sync.Mutex
	body    bytes.Buffer
	flushes int
}

func (w *gatedWriter) Header() http.Header { return w.header }
func (w *gatedWriter) WriteHeader(int)     {}

func (w *gatedWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(b)
}

func (w *gatedWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	first := w.flushes == 1
	w.mu.Unlock()
	w.flushed <- struct{}{}
	if first {
		<-w.gate
	}
}

// TestSnapshotLeadsBufferedEvents: two commits that land after an event
// stream subscribed but before it read its initial snapshot are counted
// in that snapshot, and the stream does not send their events after it:
// RunsDone never steps back.
func TestSnapshotLeadsBufferedEvents(t *testing.T) {
	s, base := newTestServer(t, ServerOptions{LocalWorkers: -1})
	spec := biggerSpec()
	created := submitSpec(t, base, spec)
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	w := &gatedWriter{header: http.Header{}, gate: make(chan struct{}), flushed: make(chan struct{}, 64)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, created.Events, nil))
	}()
	<-w.flushed // subscribed; the snapshot is not read yet
	for range 2 {
		var g LeaseGrant
		status, body := postJSON(t, base+"/dist/lease", LeaseRequest{Worker: "w"})
		if status != http.StatusOK || json.Unmarshal(body, &g) != nil {
			t.Fatalf("lease: %d %s", status, body)
		}
		res, err := plan.ExecuteUnit(context.Background(), g.Cell, g.Rep)
		if err != nil {
			t.Fatal(err)
		}
		status, body = postJSON(t, base+"/dist/commit", CommitRequest{
			LeaseID: g.LeaseID, Worker: "w", Campaign: g.Campaign, SpecHash: g.SpecHash,
			Cell: g.Cell, Rep: g.Rep, Results: res,
		})
		if status != http.StatusOK {
			t.Fatalf("commit: %d %s", status, body)
		}
	}
	close(w.gate)
	<-w.flushed // the initial snapshot is out
	deleteCampaign(t, base, created.ID)
	<-served

	last := -1
	var types []string
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := readSSE(&w.body, func(e Event) {
		types = append(types, e.Type)
		if e.Snapshot == nil {
			return
		}
		if e.Snapshot.RunsDone < last {
			t.Errorf("runs_done went backwards: %d after %d", e.Snapshot.RunsDone, last)
		}
		last = e.Snapshot.RunsDone
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{EventSnapshot, EventCampaignDone}; !reflect.DeepEqual(types, want) || last != 2 {
		t.Fatalf("stream = %v ending at runs_done %d, want %v at 2", types, last, want)
	}
}
