package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
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
