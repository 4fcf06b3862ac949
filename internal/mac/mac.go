package mac

import (
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// UpperLayer receives MAC events: the network layer / routing agent.
type UpperLayer interface {
	// MacRecv delivers a decoded data packet addressed to this node (or
	// broadcast). from is the transmitting neighbour, rxPower the
	// received signal power in Watts. A broadcast packet is the sender's
	// own, shared by every receiver, and read-only.
	MacRecv(p *pkt.Packet, from pkt.NodeID, rxPower float64)
	// MacSnoop observes unicast data frames addressed to other nodes
	// (promiscuous mode), used by DSR-style optimizations. May be a no-op.
	MacSnoop(p *pkt.Packet, from, to pkt.NodeID, rxPower float64)
	// MacSent confirms a packet left this node successfully (ACK received,
	// or broadcast transmitted).
	MacSent(p *pkt.Packet, to pkt.NodeID)
	// MacSendFailed reports that retries were exhausted for p toward to —
	// the routing layer's link-breakage signal.
	MacSendFailed(p *pkt.Packet, to pkt.NodeID)
	// MacQueueFull reports that p was dropped because the interface
	// queue overflowed — a congestion signal, NOT a link failure.
	MacQueueFull(p *pkt.Packet, to pkt.NodeID)
}

// Stats counts per-node MAC activity for the normalized-MAC-load metric.
type Stats struct {
	RTSSent, CTSSent, AckSent uint64
	DataSent, DataRecv        uint64
	CtlBytes, DataBytes       uint64
	QueueDrops                uint64 // ifq full
	RetryDrops                uint64 // retry limit exceeded
	Retries                   uint64
	Duplicates                uint64 // retransmissions filtered by dedup
}

// Config tunes the MAC.
type Config struct {
	// RTSThreshold disables RTS/CTS for unicast data shorter than this
	// many bytes. 0 (default) means RTS/CTS precedes every unicast data
	// frame, matching the CMU study configuration. Set very large to
	// disable RTS/CTS entirely (MAC ablation bench).
	RTSThreshold int
}

type macState uint8

const (
	stIdle macState = iota
	stContend
	stWaitCTS
	stWaitACK
	stTxBcast
)

// Mac is one node's 802.11 DCF instance.
type Mac struct {
	eng   *sim.Engine
	radio *phy.Radio
	id    pkt.NodeID
	up    UpperLayer
	rng   *sim.RNG
	cfg   Config

	queue *ifQueue
	cur   outPkt // the packet in flight; cur.p is nil when there is none

	// frame is rewritten in place for each transmission (see transmit).
	frame Frame
	// resp is the CTS or ACK waiting out its SIFS (see respondAfterSIFS).
	resp Frame

	state            macState
	cw               int
	shortRetries     int
	longRetries      int
	backoffRemaining sim.Duration
	contendStart     sim.Time
	contendTimer     *sim.Timer
	responseTimer    *sim.Timer
	resumeTimer      *sim.Timer
	navUntil         sim.Time

	// Event callbacks bound once, so scheduling one allocates nothing.
	sendResponseFn sim.EventFunc
	sendDataFn     sim.EventFunc
	finishFn       sim.EventFunc

	seq      uint16 // counter for issuing MAC sequence numbers
	curSeq   uint16 // sequence number of the packet in flight (stable across retries)
	dupCache map[pkt.NodeID]uint16

	Stats Stats
}

// New creates a MAC for node id bound to radio. The caller must also set
// the radio's receiver to the returned Mac.
func New(eng *sim.Engine, id pkt.NodeID, radio *phy.Radio, up UpperLayer, rng *sim.RNG, cfg Config) *Mac {
	m := &Mac{
		eng:      eng,
		radio:    radio,
		id:       id,
		up:       up,
		rng:      rng,
		cfg:      cfg,
		queue:    newIfQueue(queueLimit),
		cw:       CWMin,
		dupCache: make(map[pkt.NodeID]uint16),
	}
	m.contendTimer = sim.NewTimer(eng, m.onContendTimeout)
	m.responseTimer = sim.NewTimer(eng, m.onResponseTimeout)
	m.resumeTimer = sim.NewTimer(eng, m.tryResume)
	m.sendResponseFn = m.sendResponse
	m.sendDataFn = m.sendDataAfterCTS
	m.finishFn = m.finishCurrent
	return m
}

// Holds reports whether p is queued or in flight: until it is neither, the
// MAC may still put p on the air or hand it back to the upper layer.
func (m *Mac) Holds(p *pkt.Packet) bool { return m.cur.p == p || m.queue.holds(p) }

// Send enqueues p for transmission to the link-level next hop. Broadcast
// packets use pkt.Broadcast.
func (m *Mac) Send(p *pkt.Packet, nextHop pkt.NodeID) {
	if !m.queue.push(outPkt{p: p, to: nextHop}) {
		m.Stats.QueueDrops++
		m.up.MacQueueFull(p, nextHop)
		return
	}
	if m.state == stIdle {
		m.nextPacket()
	}
}

// FlushDest removes all queued packets headed for the given next hop and
// hands them back to the upper layer via MacSendFailed (used after a link
// break so packets can be salvaged/rerouted).
func (m *Mac) FlushDest(to pkt.NodeID) {
	for _, op := range m.queue.removeDest(to) {
		m.up.MacSendFailed(op.p, op.to)
	}
}

// --- transmit path -----------------------------------------------------

func (m *Mac) nextPacket() {
	if m.cur.p == nil {
		op, ok := m.queue.pop()
		if !ok {
			m.state = stIdle
			return
		}
		m.cur = op
		m.seq++
		m.curSeq = m.seq
	}
	m.state = stContend
	m.shortRetries, m.longRetries = 0, 0
	m.newBackoff()
	m.tryResume()
}

// newBackoff draws a fresh backoff from the current contention window.
func (m *Mac) newBackoff() {
	slots := m.rng.Intn(m.cw + 1)
	m.backoffRemaining = sim.Duration(slots) * SlotTime
}

// tryResume (re)starts the DIFS+backoff countdown if the medium is free.
func (m *Mac) tryResume() {
	if m.state != stContend || m.cur.p == nil {
		return
	}
	now := m.eng.Now()
	if m.radio.Busy() {
		return // OnChannelIdle will call us back
	}
	if now < m.navUntil {
		m.resumeTimer.ResetAt(m.navUntil)
		return
	}
	m.contendStart = now
	m.contendTimer.Reset(DIFS + m.backoffRemaining)
}

// freeze suspends a running countdown, banking the unconsumed backoff.
func (m *Mac) freeze() {
	if m.state != stContend || !m.contendTimer.Pending() {
		return
	}
	elapsed := m.eng.Now().Sub(m.contendStart)
	consumed := elapsed - DIFS
	if consumed < 0 {
		consumed = 0
	}
	m.backoffRemaining -= consumed
	if m.backoffRemaining < 0 {
		m.backoffRemaining = 0
	}
	m.contendTimer.Stop()
}

func (m *Mac) onContendTimeout() {
	if m.state != stContend || m.cur.p == nil {
		return
	}
	now := m.eng.Now()
	if m.radio.Busy() || now < m.navUntil {
		// Lost the race with an arrival in the same instant; re-contend.
		m.tryResume()
		return
	}
	p, to := m.cur.p, m.cur.to
	if to == pkt.Broadcast || (m.cfg.RTSThreshold > 0 && p.Size+DataHdrBytes < m.cfg.RTSThreshold) {
		m.transmitData()
	} else {
		m.transmitRTS()
	}
}

// dataBytes is the on-air size of the DATA frame carrying the packet in
// flight, as FrameBytes counts it.
func (m *Mac) dataBytes() int { return DataHdrBytes + m.cur.p.Size }

// dataTxTime is the airtime of the DATA frame carrying the packet in flight.
func (m *Mac) dataTxTime() sim.Duration { return TxTime(m.dataBytes()) }

func (m *Mac) transmitRTS() {
	nav := SIFS + TxTime(CTSBytes) + SIFS + m.dataTxTime() + SIFS + TxTime(AckBytes)
	m.Stats.RTSSent++
	m.Stats.CtlBytes += RTSBytes
	dur := m.transmit(Frame{Kind: FrameRTS, From: m.id, To: m.cur.to, NAV: nav})
	m.state = stWaitCTS
	// Timeout: frame airtime + SIFS + CTS airtime + propagation slack.
	m.responseTimer.Reset(dur + SIFS + TxTime(CTSBytes) + 2*SlotTime)
}

func (m *Mac) transmitData() {
	dur := m.sendData()
	if m.cur.to == pkt.Broadcast {
		// Fire-and-forget: done when the frame leaves the air.
		m.state = stTxBcast
		m.eng.Schedule(m.eng.Now().Add(dur), m.finishFn)
		return
	}
	m.state = stWaitACK
	m.responseTimer.Reset(dur + SIFS + TxTime(AckBytes) + 2*SlotTime)
}

// sendData puts the packet in flight on the air in a DATA frame and returns
// the frame's airtime.
func (m *Mac) sendData() sim.Duration {
	var nav sim.Duration
	if m.cur.to != pkt.Broadcast {
		nav = SIFS + TxTime(AckBytes)
	}
	m.Stats.DataSent++
	m.Stats.DataBytes += uint64(m.dataBytes())
	return m.transmit(Frame{Kind: FrameData, From: m.id, To: m.cur.to, NAV: nav, Seq: m.curSeq, Pkt: m.cur.p})
}

// transmit puts f on the air and returns its airtime. Receivers read a
// frame through its pointer until their reception ends, so m.frame is
// rewritten only once every frame the radio sent before has finished
// arriving everywhere; one slot serves every kind. Before that — a receiver
// farther away than the gap between two of this MAC's frames — f goes out
// in a fresh frame.
func (m *Mac) transmit(f Frame) sim.Duration {
	slot := &m.frame
	if m.eng.Now() <= m.radio.HeldUntil() {
		slot = new(Frame)
	}
	*slot = f
	dur := FrameTxTime(slot)
	m.radio.Transmit(slot, dur)
	return dur
}

func (m *Mac) onResponseTimeout() {
	if m.cur.p == nil {
		return
	}
	m.Stats.Retries++
	switch m.state {
	case stWaitCTS:
		m.shortRetries++
		if m.shortRetries > ShortRetryLimit {
			m.giveUp()
			return
		}
	case stWaitACK:
		m.longRetries++
		if m.longRetries > LongRetryLimit {
			m.giveUp()
			return
		}
	default:
		return
	}
	m.cw = min(2*(m.cw+1)-1, CWMax)
	m.state = stContend
	m.newBackoff()
	m.tryResume()
}

func (m *Mac) giveUp() {
	op := m.cur
	m.cur = outPkt{}
	m.cw = CWMin
	m.state = stIdle
	m.Stats.RetryDrops++
	m.up.MacSendFailed(op.p, op.to)
	m.nextPacket()
}

// finishCurrent completes the packet in flight: acknowledged, or a broadcast
// that has left the air.
func (m *Mac) finishCurrent() {
	op := m.cur
	m.cur = outPkt{}
	m.cw = CWMin
	m.state = stIdle
	if op.p != nil {
		m.up.MacSent(op.p, op.to)
	}
	m.nextPacket()
}

// --- receive path ------------------------------------------------------

// OnReceive implements phy.Receiver.
func (m *Mac) OnReceive(payload any, from pkt.NodeID, rxPower float64) {
	f := payload.(*Frame)
	now := m.eng.Now()
	if f.To != m.id && f.To != pkt.Broadcast {
		// Third-party frame: honour its NAV, optionally snoop data.
		if end := now.Add(f.NAV); end > m.navUntil {
			m.setNAV(end)
		}
		if f.Kind == FrameData && f.Pkt != nil {
			m.up.MacSnoop(f.Pkt, f.From, f.To, rxPower)
		}
		return
	}
	switch f.Kind {
	case FrameRTS:
		m.onRTS(f)
	case FrameCTS:
		m.onCTS(f)
	case FrameData:
		m.onData(f, rxPower)
	case FrameAck:
		m.onAck(f)
	}
}

func (m *Mac) setNAV(until sim.Time) {
	m.freeze()
	m.navUntil = until
	if m.state == stContend {
		m.resumeTimer.ResetAt(until)
	}
}

func (m *Mac) onRTS(f *Frame) {
	now := m.eng.Now()
	if now < m.navUntil {
		return // deferring for someone else's exchange
	}
	m.respondAfterSIFS(Frame{Kind: FrameCTS, From: m.id, To: f.From, NAV: f.NAV - SIFS - TxTime(CTSBytes)})
}

func (m *Mac) onCTS(f *Frame) {
	if m.state != stWaitCTS || m.cur.p == nil || f.From != m.cur.to {
		return
	}
	m.responseTimer.Stop()
	m.shortRetries = 0
	m.state = stWaitACK
	// Arm the ACK timeout up front so a suppressed data send (pathological
	// transmit overlap) still recovers via the normal retry path.
	m.responseTimer.Reset(SIFS + m.dataTxTime() + SIFS + TxTime(AckBytes) + 2*SlotTime)
	m.eng.ScheduleIn(SIFS, m.sendDataFn)
}

// sendDataAfterCTS sends the DATA frame SIFS after the CTS that cleared it.
func (m *Mac) sendDataAfterCTS() {
	if m.cur.p == nil || m.state != stWaitACK {
		return
	}
	if m.radio.Transmitting() {
		return // ACK timeout will retry
	}
	m.sendData()
}

func (m *Mac) onData(f *Frame, rxPower float64) {
	if f.To == pkt.Broadcast {
		m.Stats.DataRecv++
		// Every receiver of a broadcast gets the sender's packet: it is
		// shared and read-only (see pkt.Packet), and a receiver that
		// changes header state copies it first.
		m.up.MacRecv(f.Pkt, f.From, rxPower)
		return
	}
	// Unicast: ACK regardless of duplication, deliver only once.
	m.respondAfterSIFS(Frame{Kind: FrameAck, From: m.id, To: f.From})
	if seq, seen := m.dupCache[f.From]; seen && seq == f.Seq {
		m.Stats.Duplicates++
		return
	}
	m.dupCache[f.From] = f.Seq
	m.Stats.DataRecv++
	m.up.MacRecv(f.Pkt, f.From, rxPower)
}

func (m *Mac) onAck(f *Frame) {
	if m.state != stWaitACK || m.cur.p == nil || f.From != m.cur.to {
		return
	}
	m.responseTimer.Stop()
	m.finishCurrent()
}

// respondAfterSIFS transmits a control response SIFS after the frame that
// elicited it. Responses skip carrier sense per the standard. One slot,
// m.resp, holds the pending response: the radio decodes one frame at a
// time and the shortest frame outlasts SIFS, so a response has gone out or
// been dropped before the next delivery can request another.
func (m *Mac) respondAfterSIFS(f Frame) {
	m.resp = f
	m.eng.ScheduleIn(SIFS, m.sendResponseFn)
}

func (m *Mac) sendResponse() {
	if m.radio.Transmitting() {
		return // cannot preempt an ongoing transmission
	}
	switch m.resp.Kind {
	case FrameCTS:
		m.Stats.CTSSent++
		m.Stats.CtlBytes += CTSBytes
	case FrameAck:
		m.Stats.AckSent++
		m.Stats.CtlBytes += AckBytes
	}
	m.transmit(m.resp)
}

// --- carrier-sense callbacks --------------------------------------------

// OnChannelBusy implements phy.Receiver.
func (m *Mac) OnChannelBusy() { m.freeze() }

// OnChannelIdle implements phy.Receiver.
func (m *Mac) OnChannelIdle() { m.tryResume() }
