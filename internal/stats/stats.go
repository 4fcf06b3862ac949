// Package stats collects the evaluation metrics of the study: packet
// delivery ratio, end-to-end delay, throughput, routing overhead in packets
// and bytes (counted per hop, as in Broch et al. 1998), normalized routing
// and MAC loads, path optimality, and a census of drop reasons.
package stats

import (
	"sort"

	"adhocsim/internal/metrics"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// DropReason labels why a packet died.
type DropReason string

// Drop reasons used across the stack.
const (
	DropQueueFull   DropReason = "ifq-full"
	DropRetries     DropReason = "mac-retries"
	DropNoRoute     DropReason = "no-route"
	DropTTL         DropReason = "ttl-expired"
	DropSendBuffer  DropReason = "send-buffer-timeout"
	DropSendBufFull DropReason = "send-buffer-full"
	DropSalvageFail DropReason = "salvage-failed"
)

// Collector accumulates raw counters during one run. It is single-threaded
// (one per Engine).
type Collector struct {
	start, end sim.Time

	dataSent      uint64 // originated by sources
	dataDelivered uint64
	dupDelivered  uint64
	bytesReceived uint64

	delaySum   sim.Duration
	delays     []float64 // seconds, for percentiles
	hopsSum    uint64
	hopExcess  map[int]uint64 // actual-optimal histogram (delivered pkts with known optimum)
	optUnknown uint64

	routingTx      uint64 // routing packets transmitted (per hop)
	routingTxBytes uint64
	routingByType  map[string]uint64
	dataFwd        uint64 // data packet transmissions incl. source (per hop)

	macCtlFrames uint64 // RTS+CTS+ACK
	macCtlBytes  uint64

	drops map[DropReason]uint64

	joins, leaves     uint64  // membership transitions applied (lifecycle)
	timeToConverge    float64 // autoconf census: slowest up node, seconds
	addrCollisionRate float64 // autoconf census: duplicate-address share
	autoconfDone      bool

	// Optional metric-stream fan-out. When no sinks are attached the
	// counter path above runs byte-identically to the seed pipeline.
	sinks []metrics.Sink
	clock func() sim.Time
}

// NewCollector creates an empty collector; Begin/Finish bracket the
// measurement window.
func NewCollector() *Collector {
	return &Collector{
		hopExcess:     make(map[int]uint64),
		routingByType: make(map[string]uint64),
		drops:         make(map[DropReason]uint64),
	}
}

// AttachSinks connects the collector to the metric sample stream: every
// subsequent data/routing event is also emitted as a typed metrics.Sample,
// stamped with the virtual time from clock. Sinks share the Engine's
// single-goroutine discipline.
func (c *Collector) AttachSinks(clock func() sim.Time, sinks ...metrics.Sink) {
	if len(sinks) == 0 {
		return
	}
	c.clock = clock
	c.sinks = append(c.sinks, sinks...)
}

// emit fans one sample out to the attached sinks at the current sim time.
func (c *Collector) emit(k metrics.Kind, v float64) {
	s := metrics.Sample{At: c.clock(), Kind: k, Value: v}
	for _, sk := range c.sinks {
		sk.Record(s)
	}
}

// Begin marks the start of the measurement window.
func (c *Collector) Begin(t sim.Time) { c.start = t }

// Finish marks the end of the measurement window.
func (c *Collector) Finish(t sim.Time) { c.end = t }

// OnDataOriginated records an application packet handed to the network
// layer. optimalHops is the oracle hop distance at origination (-1 when the
// destination is partitioned/unknown).
func (c *Collector) OnDataOriginated(p *pkt.Packet, optimalHops int) {
	c.dataSent++
	_ = p
	_ = optimalHops // recorded on the packet itself; used at delivery
	if len(c.sinks) > 0 {
		c.emit(metrics.Originated, 1)
	}
}

// OnDataDelivered records a packet reaching its destination sink.
// isDup marks duplicates (already-delivered sequence numbers).
func (c *Collector) OnDataDelivered(p *pkt.Packet, now sim.Time, isDup bool) {
	if isDup {
		c.dupDelivered++
		return
	}
	c.dataDelivered++
	c.bytesReceived += uint64(p.Size)
	d := now.Sub(p.CreatedAt)
	c.delaySum += d
	c.delays = append(c.delays, d.Seconds())
	c.hopsSum += uint64(p.Hops)
	if len(c.sinks) > 0 {
		c.emit(metrics.Delivered, float64(p.Size))
		c.emit(metrics.Delay, d.Seconds())
		c.emit(metrics.Hops, float64(p.Hops))
	}
	if p.OptimalHops > 0 {
		excess := p.Hops - p.OptimalHops
		if excess < 0 {
			excess = 0 // topology changed mid-flight; clamp
		}
		c.hopExcess[excess]++
	} else {
		c.optUnknown++
	}
}

// OnRoutingTx records one transmission (one hop) of a routing packet.
// Per Broch et al., each forwarding hop counts as a separate transmission.
func (c *Collector) OnRoutingTx(p *pkt.Packet) {
	c.routingTx++
	c.routingTxBytes += uint64(p.Size)
	c.routingByType[p.Msg]++
	if len(c.sinks) > 0 {
		c.emit(metrics.RoutingTx, float64(p.Size))
	}
}

// OnDataTx records one transmission (one hop) of a data packet.
func (c *Collector) OnDataTx(p *pkt.Packet) {
	c.dataFwd++
	if len(c.sinks) > 0 {
		c.emit(metrics.DataTx, float64(p.Size))
	}
}

// OnMacControl records the run's MAC control frames (RTS/CTS/ACK) so far,
// in aggregate: cumulative totals that replace those of any earlier call.
func (c *Collector) OnMacControl(frames, bytes uint64) {
	c.macCtlFrames = frames
	c.macCtlBytes = bytes
}

// OnJoin records a node joining (or recovering into) the membership.
func (c *Collector) OnJoin() {
	c.joins++
	if len(c.sinks) > 0 {
		c.emit(metrics.Join, 1)
	}
}

// OnLeave records a node leaving (or failing out of) the membership.
func (c *Collector) OnLeave() {
	c.leaves++
	if len(c.sinks) > 0 {
		c.emit(metrics.Leave, 1)
	}
}

// SetAutoconf records the end-of-run address-autoconfiguration census
// (network.World computes it when the protocol implements Autoconfigured):
// the convergence instant of the slowest up node and the duplicate-address
// share among up nodes.
func (c *Collector) SetAutoconf(timeToConverge, collisionRate float64) {
	c.timeToConverge = timeToConverge
	c.addrCollisionRate = collisionRate
	c.autoconfDone = true
}

// OnDrop records a packet death. Only data packets are charged to PDR;
// routing packet drops are tracked for diagnostics.
func (c *Collector) OnDrop(p *pkt.Packet, reason DropReason) {
	c.drops[reason]++
	if len(c.sinks) > 0 {
		c.emit(metrics.Dropped, 1)
	}
}

// Results is the final metric set of one run.
type Results struct {
	Duration sim.Duration

	DataSent      uint64
	DataDelivered uint64
	DupDelivered  uint64

	// PDR is delivered/sent in [0,1].
	PDR float64
	// AvgDelay is the mean end-to-end delay of delivered packets, seconds.
	AvgDelay float64
	// P50Delay/P95Delay are delay percentiles, seconds.
	P50Delay, P95Delay float64
	// ThroughputKbps is application payload delivered per unit time.
	ThroughputKbps float64

	// RoutingTxPackets counts routing packet transmissions per hop.
	RoutingTxPackets uint64
	RoutingTxBytes   uint64
	RoutingByType    map[string]uint64
	// NormalizedRoutingLoad is routing transmissions per delivered packet.
	NormalizedRoutingLoad float64
	// DataTxPackets counts data packet transmissions per hop.
	DataTxPackets uint64

	// MacCtlFrames / NormalizedMacLoad cover RTS/CTS/ACK control frames.
	MacCtlFrames      uint64
	MacCtlBytes       uint64
	NormalizedMacLoad float64

	// AvgHops is the mean hop count of delivered packets; HopExcess is the
	// histogram of (actual − optimal) hops for delivered packets whose
	// optimal distance was known.
	AvgHops    float64
	HopExcess  map[int]uint64
	OptUnknown uint64

	Drops map[DropReason]uint64

	// Joins/Leaves count the membership transitions the lifecycle layer
	// applied during the run; zero under the static lifecycle.
	Joins  uint64
	Leaves uint64
	// TimeToConverge is the autoconfiguration convergence instant in
	// seconds (the slowest up node; unconverged nodes are charged the full
	// run). Zero when the protocol does not autoconfigure.
	TimeToConverge float64
	// AddrCollisionRate is the fraction of up nodes whose claimed address
	// was also claimed by another up node at the end of the run.
	AddrCollisionRate float64

	// Streams is the serialized metric-stream digest (quantile sketches and
	// bucketed time series) when the run was executed with stream sinks
	// attached — the campaign pipeline sets it so journal entries and
	// distributed commits carry sketch state. Nil on plain runs.
	Streams *metrics.RunStreams `json:"Streams,omitempty"`
}

// Finalize computes Results from the raw counters.
func (c *Collector) Finalize() Results {
	r := Results{
		Duration:         c.end.Sub(c.start),
		DataSent:         c.dataSent,
		DataDelivered:    c.dataDelivered,
		DupDelivered:     c.dupDelivered,
		RoutingTxPackets: c.routingTx,
		RoutingTxBytes:   c.routingTxBytes,
		RoutingByType:    c.routingByType,
		DataTxPackets:    c.dataFwd,
		MacCtlFrames:     c.macCtlFrames,
		MacCtlBytes:      c.macCtlBytes,
		HopExcess:        c.hopExcess,
		OptUnknown:       c.optUnknown,
		Drops:            c.drops,
		Joins:            c.joins,
		Leaves:           c.leaves,
	}
	if c.autoconfDone {
		r.TimeToConverge = c.timeToConverge
		r.AddrCollisionRate = c.addrCollisionRate
	}
	if c.dataSent > 0 {
		r.PDR = float64(c.dataDelivered) / float64(c.dataSent)
	}
	if c.dataDelivered > 0 {
		r.AvgDelay = c.delaySum.Seconds() / float64(c.dataDelivered)
		r.AvgHops = float64(c.hopsSum) / float64(c.dataDelivered)
		r.NormalizedRoutingLoad = float64(c.routingTx) / float64(c.dataDelivered)
		r.NormalizedMacLoad = float64(c.macCtlFrames+c.routingTx) / float64(c.dataDelivered)
		sorted := append([]float64(nil), c.delays...)
		sort.Float64s(sorted)
		r.P50Delay = percentile(sorted, 0.50)
		r.P95Delay = percentile(sorted, 0.95)
	}
	if dur := r.Duration.Seconds(); dur > 0 {
		r.ThroughputKbps = float64(c.bytesReceived) * 8 / 1000 / dur
	}
	return r
}

// percentile returns the p-quantile (0..1) of sorted data by nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// PathOptimalityShare returns the fraction of delivered packets that took
// exactly the optimal path length.
func (r Results) PathOptimalityShare() float64 {
	var total, opt uint64
	for excess, n := range r.HopExcess {
		total += n
		if excess == 0 {
			opt += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(opt) / float64(total)
}

// TotalDrops sums all recorded drops.
func (r Results) TotalDrops() uint64 {
	var t uint64
	for _, n := range r.Drops {
		t += n
	}
	return t
}
