package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"adhocsim/internal/campaign"
)

// Server-sent events: the hub's bridge to HTTP. Each event is written as
//
//	event: <type>
//	data: <json Event>
//
// with a comment-line heartbeat while idle so intermediaries keep the
// connection alive.

const sseHeartbeat = 15 * time.Second

// sseWriter wraps a streaming response.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, true
}

func (s *sseWriter) event(e Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", e.Type, b); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s *sseWriter) comment(text string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// handleEvents streams one campaign's progress: an initial snapshot, then
// run_committed / cell_converged events through to the terminal
// campaign_done. Subscription happens before the initial snapshot is read,
// so a terminal transition can never fall between the two unobserved. A
// commit that lands between the two is counted in the snapshot already:
// its events, which the subscription buffered, are skipped, so RunsDone
// never steps back.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	sub := s.hub.Subscribe(CampaignTopic(m.id), 64)
	defer sub.Cancel()
	sw, ok := newSSEWriter(w)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}

	snap := m.c.Snapshot()
	if err := sw.event(Event{Type: EventSnapshot, Campaign: m.id, State: snap.State, Snapshot: &snap}); err != nil {
		return
	}
	if terminalState(snap.State) {
		_ = sw.event(Event{Type: EventCampaignDone, Campaign: m.id, State: snap.State, Snapshot: &snap, Err: snap.Err})
		return
	}

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	stale := false // the last run_committed is counted in snap
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-sub.C():
			// A commit's cell_converged directly follows its run_committed.
			switch e.Type {
			case EventRunCommitted:
				stale = e.Snapshot.RunsDone <= snap.RunsDone
			case EventCampaignDone:
				stale = false
			}
			if stale {
				continue
			}
			if err := sw.event(e); err != nil {
				return
			}
			if e.Type == EventCampaignDone {
				return
			}
		case <-hb.C:
			// Heartbeat doubles as a terminal-state safety net: if the
			// subscriber's buffer ever dropped the done event (pathological
			// backlog), the stream still closes.
			if snap := m.c.Snapshot(); terminalState(snap.State) {
				_ = sw.event(Event{Type: EventCampaignDone, Campaign: m.id, State: snap.State, Snapshot: &snap, Err: snap.Err})
				return
			}
			if err := sw.comment("ping"); err != nil {
				return
			}
		}
	}
}

func terminalState(st campaign.State) bool {
	return st == campaign.StateDone || st == campaign.StateFailed || st == campaign.StateCancelled
}
