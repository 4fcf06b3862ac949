package adhocsim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"adhocsim"
	"adhocsim/internal/pkt"
	"adhocsim/internal/trace"
)

// sentBroadcast is a broadcast packet as its sender handed it to the MAC.
type sentBroadcast struct {
	p      *pkt.Packet
	header pkt.Packet // p's fields at the send, SrcRoute deep-copied
	text   string     // the payload's contents at the send, %+v
}

// changed describes how s.p differs from its snapshot, or is empty.
func (s *sentBroadcast) changed() string {
	// DeepEqual passes a payload pointer changed in place; the text
	// comparison below catches that.
	if !reflect.DeepEqual(*s.p, s.header) || s.p.Payload != s.header.Payload {
		return fmt.Sprintf("sent %v route %v payload %s\nnow  %v route %v payload %+v",
			&s.header, s.header.SrcRoute, s.text, s.p, s.p.SrcRoute, s.p.Payload)
	}
	if got := fmt.Sprintf("%+v", s.p.Payload); got != s.text {
		return fmt.Sprintf("%v: payload\nsent %s\nnow  %s", s.p, s.text, got)
	}
	return ""
}

// broadcastWatch is a tracer that snapshots every broadcast send and checks
// every reception of a broadcast packet against the snapshot of its latest
// send. It keeps the packets past the trace call on purpose: the end of the
// run compares them with their snapshots.
type broadcastWatch struct {
	t       *testing.T
	sent    []*sentBroadcast
	latest  map[*pkt.Packet]*sentBroadcast
	shared  int // receptions of a broadcast packet by another node
	rebuilt int // sends of a packet object sent before, under a new UID
}

func (w *broadcastWatch) Trace(ev trace.Event) {
	switch {
	case ev.Op == trace.OpSend && ev.Peer == pkt.Broadcast:
		h := *ev.Pkt
		h.SrcRoute = slices.Clone(h.SrcRoute)
		s := &sentBroadcast{p: ev.Pkt, header: h, text: fmt.Sprintf("%+v", h.Payload)}
		if prev := w.latest[ev.Pkt]; prev != nil && prev.header.UID != h.UID {
			w.rebuilt++
		}
		w.sent = append(w.sent, s)
		w.latest[ev.Pkt] = s
	case ev.Op == trace.OpRecv && w.latest[ev.Pkt] != nil:
		w.shared++
		if diff := w.latest[ev.Pkt].changed(); diff != "" {
			w.t.Errorf("n%d received a broadcast that changed after its send:\n%s", ev.Node, diff)
		}
	}
}

// check reports every broadcast packet that changed after its send, except
// one its sender rebuilt: a rebuild draws a new UID, and a sender rebuilds
// a beacon while it is down too, when the tracer never sees the send.
func (w *broadcastWatch) check(t *testing.T) {
	t.Helper()
	for _, s := range w.sent {
		if s.p.UID != s.header.UID {
			continue
		}
		if diff := s.changed(); diff != "" {
			t.Errorf("broadcast changed after its send:\n%s", diff)
		}
	}
}

// TestBroadcastPacketsStayReadOnly pins the shared-broadcast contract of
// pkt.Packet across every registered protocol: every receiver of a
// broadcast gets the sender's packet, so no node may change a broadcast
// packet or its payload from its send until the sender's Env.Released frees
// it, and then only the sender may rebuild it. Each run, with and without
// failure churn, snapshots every broadcast at its send, checks every
// reception against the snapshot of that packet's latest send, and at the
// end compares every packet its sender has not rebuilt. CBRP's HELLOs and
// DSDV's updates must be rebuilt at least once, so the rebuild path is
// covered.
func TestBroadcastPacketsStayReadOnly(t *testing.T) {
	for _, proto := range adhocsim.RegisteredProtocols() {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			rebuilt := 0
			for _, lc := range []adhocsim.LifecycleSpec{
				{Name: "static"},
				{Name: "onoff-fail", Params: map[string]float64{"mean_up_s": 6, "mean_down_s": 2}},
			} {
				for seed := int64(1); seed <= 8; seed++ {
					spec := adhocsim.DefaultSpec()
					spec.Nodes = 12
					spec.Area.W = 900
					spec.Duration = 15 * adhocsim.Second
					spec.Sources = 4
					spec.StartMin = 1 * adhocsim.Second
					spec.StartMax = 3 * adhocsim.Second
					spec.Lifecycle = lc
					w := &broadcastWatch{t: t, latest: make(map[*pkt.Packet]*sentBroadcast)}
					if _, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: seed, Tracer: w}); err != nil {
						t.Fatal(err)
					}
					if w.shared == 0 {
						t.Fatalf("%s seed %d: no node received a broadcast", lc.Name, seed)
					}
					w.check(t)
					if t.Failed() {
						t.Fatalf("%s seed %d: %d broadcasts, %d shared receptions", lc.Name, seed, len(w.sent), w.shared)
					}
					rebuilt += w.rebuilt
				}
			}
			if (proto == adhocsim.CBRP || proto == adhocsim.DSDV) && rebuilt == 0 {
				t.Errorf("%s rebuilt no broadcast in place", proto)
			}
		})
	}
}
