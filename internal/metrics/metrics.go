// Package metrics turns stats collection into an event stream: the network
// layer emits typed Samples (one per delivery, drop, transmission, …) and
// pluggable Sinks consume them online. Sinks are bounded-memory by design —
// a quantile sketch (Sketch/SketchSink), a fixed-bucket time series (Window),
// and a JSONL dump (JSONLWriter) — so 10k-node runs stay observable without
// keeping full traces. All sinks are deterministic: feeding the same samples
// in the same order reproduces bit-identical state.
package metrics

import (
	"fmt"

	"adhocsim/internal/sim"
)

// Kind labels what a Sample measures and what its Value means.
type Kind uint8

// The sample taxonomy. MAC control frames are only available in aggregate at
// run end, so they have no per-sample kind; everything else that feeds
// stats.Results has one.
const (
	// Originated: an application packet handed to the network layer. Value 1.
	Originated Kind = iota
	// Delivered: a packet reached its destination sink (duplicates excluded).
	// Value is the payload size in bytes, so per-bucket sums give throughput
	// and per-bucket counts give delivery rate.
	Delivered
	// Delay: end-to-end delay of a delivered packet, seconds.
	Delay
	// Hops: hop count of a delivered packet.
	Hops
	// RoutingTx: one transmission (one hop) of a routing packet. Value is the
	// packet size in bytes.
	RoutingTx
	// DataTx: one transmission (one hop) of a data packet. Value is the
	// packet size in bytes.
	DataTx
	// Dropped: a packet died. Value 1.
	Dropped
	// Join: a node joined or recovered into the membership (lifecycle
	// event). Value 1.
	Join
	// Leave: a node left or failed out of the membership. Value 1.
	Leave

	// NumKinds bounds the Kind space; valid kinds are 0..NumKinds-1.
	NumKinds
)

var kindNames = [NumKinds]string{
	Originated: "originated",
	Delivered:  "delivered",
	Delay:      "delay",
	Hops:       "hops",
	RoutingTx:  "routing_tx",
	DataTx:     "data_tx",
	Dropped:    "dropped",
	Join:       "join",
	Leave:      "leave",
}

// String returns the stable wire name of the kind (used as JSON map keys).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Sample is one typed metric observation at a point in virtual time.
type Sample struct {
	At    sim.Time
	Kind  Kind
	Value float64
}

// Sink consumes the sample stream of one run. Record is called on the
// simulation hot path and must not retain the sample past the call; sinks
// that buffer should keep allocation amortized (the large-N allocation
// budget test runs with every sink attached). Sinks are single-goroutine,
// like the Engine that feeds them.
type Sink interface {
	Record(s Sample)
}

// Capture is a Sink that appends every sample to a slice, for tests and
// replay comparisons. Unlike the production sinks its memory is unbounded —
// do not attach it to large runs.
type Capture struct {
	Samples []Sample
}

// Record appends the sample.
func (c *Capture) Record(s Sample) { c.Samples = append(c.Samples, s) }
