// Package traffic provides the UDP workload generators of the harness. The
// study's workload is constant bit rate (ns-2 "cbrgen"): each connection
// sends fixed-size packets at a fixed rate from a staggered start time.
// Alternative emission processes — Poisson arrivals and exponential on/off
// (VBR) bursts — resolve by name through the Models table (New), so
// campaigns can sweep the traffic model like any other axis. The sink side
// performs duplicate suppression and feeds the metrics collector.
package traffic

import (
	"fmt"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// Packet emission process names; Connection.Process selects one.
const (
	ProcessCBR      = "cbr"
	ProcessPoisson  = "poisson"
	ProcessExpOnOff = "expoo"
)

// Connection is one traffic flow.
type Connection struct {
	Src, Dst pkt.NodeID
	// Rate in packets per second (for on/off processes: the peak rate
	// while ON).
	Rate float64
	// PayloadBytes per packet (64 in the study).
	PayloadBytes int
	// Start is when the flow begins; it runs to the horizon.
	Start sim.Time
	// Process selects the packet emission process: "" or ProcessCBR emits
	// at the fixed CBR interval, ProcessPoisson draws exponential
	// inter-packet gaps with mean 1/Rate, ProcessExpOnOff alternates
	// exponential ON bursts (emitting at Rate) with exponential OFF gaps.
	Process string
	// OnMean/OffMean are the mean ON/OFF period lengths in seconds of the
	// expoo process.
	OnMean, OffMean float64
	// Seed drives the random draws of stochastic processes (unused by
	// CBR). Generators derive it from the run seed via sim.DeriveSeed so
	// emission schedules are reproducible across processes.
	Seed int64
}

// Validate sanity-checks the connection against a node count.
func (c Connection) Validate(numNodes int) error {
	if c.Src == c.Dst {
		return fmt.Errorf("traffic: connection %v->%v is a self-loop", c.Src, c.Dst)
	}
	if int(c.Src) < 0 || int(c.Src) >= numNodes || int(c.Dst) < 0 || int(c.Dst) >= numNodes {
		return fmt.Errorf("traffic: connection %v->%v out of range (%d nodes)", c.Src, c.Dst, numNodes)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("traffic: non-positive rate %v", c.Rate)
	}
	if c.PayloadBytes <= 0 {
		return fmt.Errorf("traffic: non-positive payload %d", c.PayloadBytes)
	}
	switch c.Process {
	case "", ProcessCBR, ProcessPoisson:
	case ProcessExpOnOff:
		if c.OnMean <= 0 {
			return fmt.Errorf("traffic: expoo connection %v->%v needs a positive OnMean, got %v",
				c.Src, c.Dst, c.OnMean)
		}
		if c.OffMean < 0 {
			return fmt.Errorf("traffic: expoo connection %v->%v has negative OffMean %v",
				c.Src, c.Dst, c.OffMean)
		}
	default:
		return fmt.Errorf("traffic: connection %v->%v has unknown process %q",
			c.Src, c.Dst, c.Process)
	}
	return nil
}

// Source drives one connection on its source node.
type Source struct {
	conn Connection
	node *network.Node
	seq  uint32
	tick *sim.Ticker
}

// Install wires connections and sinks into the world: every destination node
// gets a deduplicating sink, every source a CBR generator. It returns the
// sources.
func Install(w *network.World, conns []Connection, horizon sim.Time) ([]*Source, error) {
	sinks := make(map[pkt.NodeID]*Sink)
	var sources []*Source
	for _, cn := range conns {
		if err := cn.Validate(len(w.Nodes)); err != nil {
			return nil, err
		}
		if _, ok := sinks[cn.Dst]; !ok {
			s := NewSink(w)
			sinks[cn.Dst] = s
			w.Node(cn.Dst).SetSink(s.Accept)
		}
		sources = append(sources, NewSource(w, cn, horizon))
	}
	return sources, nil
}

// NewSource schedules conn's packet emission process on its source node.
func NewSource(w *network.World, conn Connection, horizon sim.Time) *Source {
	node := w.Node(conn.Src)
	s := &Source{conn: conn, node: node}
	switch conn.Process {
	case ProcessPoisson:
		s.startPoisson(w, horizon)
	case ProcessExpOnOff:
		s.startExpOnOff(w, horizon)
	default: // "" / ProcessCBR
		s.startCBR(w, horizon)
	}
	return s
}

// startCBR is the study's fixed-interval emission: the first packet at
// Start exactly, then one per interval from a ticker.
func (s *Source) startCBR(w *network.World, horizon sim.Time) {
	s.tick = sim.NewTicker(w.Eng, sim.Seconds(1/s.conn.Rate), func() {
		now := w.Eng.Now()
		if s.ended(now, horizon) {
			s.tick.Stop()
			return
		}
		s.emit(now)
	})
	w.Eng.Schedule(s.conn.Start, func() {
		now := w.Eng.Now()
		if s.ended(now, horizon) {
			return
		}
		s.emit(now)
		s.tick.Start()
	})
}

// ended reports whether the flow is past the horizon.
func (s *Source) ended(now, horizon sim.Time) bool { return now.After(horizon) }

// emit originates one data packet at now.
func (s *Source) emit(now sim.Time) {
	p := pkt.DataPacket(s.conn.Src, s.conn.Dst, s.seq, s.conn.PayloadBytes, now)
	s.seq++
	s.node.Originate(p)
}

// startPoisson schedules memoryless emission: exponential inter-packet gaps
// with mean 1/Rate, drawn from the connection's own seeded stream.
func (s *Source) startPoisson(w *network.World, horizon sim.Time) {
	rng := sim.NewRNG(s.conn.Seed)
	mean := 1 / s.conn.Rate
	var next func()
	next = func() {
		now := w.Eng.Now()
		if s.ended(now, horizon) {
			return
		}
		s.emit(now)
		w.Eng.Schedule(now.Add(sim.Seconds(rng.Exp(mean))), next)
	}
	w.Eng.Schedule(s.conn.Start, next)
}

// startExpOnOff schedules the exponential on/off VBR process: bursts of
// CBR-paced packets whose lengths are exponential with mean OnMean seconds,
// separated by exponential OFF gaps with mean OffMean seconds.
func (s *Source) startExpOnOff(w *network.World, horizon sim.Time) {
	rng := sim.NewRNG(s.conn.Seed)
	interval := sim.Seconds(1 / s.conn.Rate)
	var burstEnd sim.Time
	var emit func()
	startBurst := func() {
		now := w.Eng.Now()
		if s.ended(now, horizon) {
			return
		}
		burstEnd = now.Add(sim.Seconds(rng.Exp(s.conn.OnMean)))
		emit()
	}
	emit = func() {
		now := w.Eng.Now()
		if s.ended(now, horizon) {
			return
		}
		if now.After(burstEnd) {
			w.Eng.Schedule(now.Add(sim.Seconds(rng.Exp(s.conn.OffMean))), startBurst)
			return
		}
		s.emit(now)
		w.Eng.Schedule(now.Add(interval), emit)
	}
	w.Eng.Schedule(s.conn.Start, startBurst)
}

// Sink accepts data packets at a destination node, suppressing duplicates
// per flow.
type Sink struct {
	w    *network.World
	seen map[flowKey]map[uint32]struct{}
}

type flowKey struct{ src pkt.NodeID }

// NewSink creates a sink bound to the world's collector.
func NewSink(w *network.World) *Sink {
	return &Sink{w: w, seen: make(map[flowKey]map[uint32]struct{})}
}

// Accept implements network.SinkFunc.
func (s *Sink) Accept(p *pkt.Packet, from pkt.NodeID) {
	k := flowKey{src: p.Src}
	m, ok := s.seen[k]
	if !ok {
		m = make(map[uint32]struct{})
		s.seen[k] = m
	}
	if _, dup := m[p.Seq]; dup {
		s.w.Collector.OnDataDelivered(p, s.w.Eng.Now(), true)
		return
	}
	m[p.Seq] = struct{}{}
	s.w.Collector.OnDataDelivered(p, s.w.Eng.Now(), false)
}
