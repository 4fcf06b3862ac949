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

// broadcastWatch is a tracer that snapshots every broadcast send and counts
// the receptions that share a broadcast packet. It keeps the packets past
// the trace call on purpose: the end of the run compares them with their
// snapshots.
type broadcastWatch struct {
	sent   []sentBroadcast
	byPtr  map[*pkt.Packet]bool
	shared int // receptions of a broadcast packet by another node
}

func (w *broadcastWatch) Trace(ev trace.Event) {
	switch {
	case ev.Op == trace.OpSend && ev.Peer == pkt.Broadcast:
		h := *ev.Pkt
		h.SrcRoute = slices.Clone(h.SrcRoute)
		w.sent = append(w.sent, sentBroadcast{p: ev.Pkt, header: h, text: fmt.Sprintf("%+v", h.Payload)})
		w.byPtr[ev.Pkt] = true
	case ev.Op == trace.OpRecv && w.byPtr[ev.Pkt]:
		w.shared++
	}
}

// check reports every broadcast packet that changed after its send.
func (w *broadcastWatch) check(t *testing.T) {
	t.Helper()
	for _, s := range w.sent {
		// DeepEqual passes a payload pointer changed in place; the text
		// comparison below catches that.
		if !reflect.DeepEqual(*s.p, s.header) || s.p.Payload != s.header.Payload {
			t.Errorf("broadcast changed after its send:\nsent %v route %v payload %s\nnow  %v route %v payload %+v",
				&s.header, s.header.SrcRoute, s.text, s.p, s.p.SrcRoute, s.p.Payload)
		} else if got := fmt.Sprintf("%+v", s.p.Payload); got != s.text {
			t.Errorf("%v: payload changed after its send:\nsent %s\nnow  %s", s.p, s.text, got)
		}
	}
}

// TestBroadcastPacketsStayReadOnly pins the shared-broadcast contract of
// pkt.Packet across every registered protocol: every receiver of a
// broadcast gets the sender's packet, so no node may change a broadcast
// packet or its payload once it was sent. Each run snapshots every broadcast
// at its send and compares at the end, with and without failure churn.
func TestBroadcastPacketsStayReadOnly(t *testing.T) {
	for _, proto := range adhocsim.RegisteredProtocols() {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
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
					w := &broadcastWatch{byPtr: make(map[*pkt.Packet]bool)}
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
				}
			}
		})
	}
}
