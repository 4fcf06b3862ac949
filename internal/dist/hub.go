// Package dist distributes campaign execution across processes: a
// coordinator expands a campaign.Spec into run units keyed
// (spec-hash, cell, rep), leases them to worker processes over HTTP with
// deadlines and heartbeat renewal, and commits results through the
// campaign engine's in-order path — so stopping rules and final
// aggregates stay pure functions of the spec, bit-identical to a
// single-process run. A content-addressed result cache (Store) is
// consulted before any lease is granted, and a topic-based pub/sub hub
// streams per-campaign progress to SSE subscribers. Workers learn that a
// campaign ended from its leases: the coordinator drops them, so the next
// renewal fails.
package dist

import (
	"sync"

	"adhocsim/internal/campaign"
	"adhocsim/internal/metrics"
)

// Event is one message on the progress bus. The same shape is published
// in-process (Hub) and serialized to SSE subscribers of
// GET /campaigns/{id}/events.
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Campaign is the coordinator-assigned campaign id.
	Campaign string `json:"campaign,omitempty"`
	// Cell and Label identify the cell on run_committed and cell_converged
	// events; Rep is the committed replication on run_committed events.
	Cell  *int   `json:"cell,omitempty"`
	Rep   *int   `json:"rep,omitempty"`
	Label string `json:"label,omitempty"`
	// Series is the committed run's bucketed time series on run_committed
	// events — the live per-cell stream a dashboard accumulates.
	Series *metrics.SeriesState `json:"series,omitempty"`
	// State is the terminal state on campaign_done events.
	State campaign.State `json:"state,omitempty"`
	// Snapshot carries cumulative progress counters; RunsDone is monotone,
	// so subscribers that miss intermediate events still observe a
	// non-decreasing committed-run count.
	Snapshot *campaign.Snapshot `json:"snapshot,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// Event types.
const (
	EventSnapshot      = "snapshot"       // initial state for a new subscriber
	EventRunCommitted  = "run_committed"  // one unit committed
	EventCellConverged = "cell_converged" // a cell's stopping rule fired
	EventCampaignDone  = "campaign_done"  // terminal: done, failed or cancelled
)

// CampaignTopic is the per-campaign progress topic.
func CampaignTopic(id string) string { return "campaign/" + id }

// Hub is a topic-based publish/subscribe bus. Publishing never blocks: a
// subscriber that cannot keep up loses its oldest buffered events first,
// which is safe here because events carry cumulative snapshots — the
// newest event always supersedes the dropped ones.
type Hub struct {
	mu     sync.Mutex
	topics map[string]map[*Sub]struct{}
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{topics: make(map[string]map[*Sub]struct{})}
}

// Sub is one subscription; receive from C, release with Cancel.
type Sub struct {
	hub   *Hub
	topic string
	ch    chan Event
	once  sync.Once
}

// Subscribe registers a subscriber on a topic with the given buffer
// capacity; a capacity below 1 selects 16.
func (h *Hub) Subscribe(topic string, buf int) *Sub {
	if buf < 1 {
		buf = 16
	}
	s := &Sub{hub: h, topic: topic, ch: make(chan Event, buf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := h.topics[topic]
	if subs == nil {
		subs = make(map[*Sub]struct{})
		h.topics[topic] = subs
	}
	subs[s] = struct{}{}
	return s
}

// C is the subscription's event stream.
func (s *Sub) C() <-chan Event { return s.ch }

// Cancel detaches the subscription from the hub. The channel is not
// closed (a concurrent Publish may still be holding it); readers should
// select on their own done signal alongside C.
func (s *Sub) Cancel() {
	s.once.Do(func() {
		h := s.hub
		h.mu.Lock()
		defer h.mu.Unlock()
		if subs := h.topics[s.topic]; subs != nil {
			delete(subs, s)
			if len(subs) == 0 {
				delete(h.topics, s.topic)
			}
		}
	})
}

// Publish fans an event out to every subscriber of the topic without
// blocking: a full subscriber buffer drops its oldest event to make room.
func (h *Hub) Publish(topic string, e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.topics[topic] {
		select {
		case s.ch <- e:
		default:
			// Full: evict the oldest buffered event. The consumer may have
			// raced a slot free, so the retry send can still fail — then the
			// consumer made room itself, and dropping this event in favour of
			// the ones in flight is equally sound.
			select {
			case <-s.ch:
			default:
			}
			select {
			case s.ch <- e:
			default:
			}
		}
	}
}
