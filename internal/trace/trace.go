// Package trace provides ns-2-style packet-event tracing. A Tracer
// receives one record per network-layer event (send, receive, forward,
// deliver, drop) and renders it as a text line compatible in spirit with
// the CMU wireless trace format:
//
//	s 12.345678901 _3_ RTR --- 42 RREQ 44 [n3 -> bcast] ttl 5
//	r 12.345912340 _5_ RTR --- 42 RREQ 44 [n3 -> bcast] ttl 5
//	D 13.000000000 _7_ RTR no-route 99 data 92 [n1 -> n9]
//
// Tracing is optional and off by default; the simulator's hot path pays a
// single nil check per event.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Op is the traced operation.
type Op byte

const (
	// OpSend is a network-layer transmission (originating or forwarding).
	OpSend Op = 's'
	// OpRecv is a network-layer reception.
	OpRecv Op = 'r'
	// OpDeliver is an arrival at the destination sink.
	OpDeliver Op = 'd'
	// OpDrop is a packet death.
	OpDrop Op = 'D'
)

// Event is one trace record.
type Event struct {
	Op     Op
	At     sim.Time
	Node   pkt.NodeID
	Pkt    *pkt.Packet
	Peer   pkt.NodeID       // next hop for sends, previous hop for receives
	Reason stats.DropReason // drops only
}

// Tracer consumes events. Implementations must not retain Pkt beyond the
// call (packets are mutable and recycled).
type Tracer interface {
	Trace(ev Event)
}

// Writer renders events as text lines to an io.Writer. It is safe for use
// from multiple worlds only if each world has its own Writer or the caller
// serializes; a mutex guards the underlying writer for convenience.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewWriter creates a line-oriented tracer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Trace implements Tracer.
func (t *Writer) Trace(ev Event) {
	line := Format(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := io.WriteString(t.w, line+"\n"); err != nil {
		t.err = err
	}
}

// Format renders one event as a trace line.
func Format(ev Event) string {
	var b strings.Builder
	label := ev.Pkt.Msg
	if label == "" {
		label = "data"
	}
	dst := ev.Pkt.Dst.String()
	fmt.Fprintf(&b, "%c %.9f _%d_ RTR ", byte(ev.Op), ev.At.Seconds(), int32(ev.Node))
	if ev.Op == OpDrop {
		fmt.Fprintf(&b, "%s ", ev.Reason)
	} else {
		b.WriteString("--- ")
	}
	fmt.Fprintf(&b, "%d %s %d [%v -> %s]", ev.Pkt.UID, label, ev.Pkt.Size, ev.Pkt.Src, dst)
	switch ev.Op {
	case OpSend:
		fmt.Fprintf(&b, " via %v ttl %d", ev.Peer, ev.Pkt.TTL)
	case OpRecv:
		fmt.Fprintf(&b, " from %v hops %d", ev.Peer, ev.Pkt.Hops)
	case OpDeliver:
		fmt.Fprintf(&b, " delay %.6f hops %d", ev.At.Sub(ev.Pkt.CreatedAt).Seconds(), ev.Pkt.Hops)
	}
	if ev.Pkt.SrcRoute != nil && ev.Op == OpSend {
		b.WriteString(" sr=")
		for i, n := range ev.Pkt.SrcRoute {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", int32(n))
		}
	}
	return b.String()
}
