package phy

import (
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// arrival is one transmission as seen by one receiver.
type arrival struct {
	payload   any
	from      pkt.NodeID
	power     float64
	end       sim.Time
	corrupted bool
}

// Radio is one node's transceiver. It is half-duplex: transmitting corrupts
// any in-progress reception, and frames arriving while transmitting are
// lost. Reception follows the ns-2 capture model: among overlapping
// arrivals, a frame is decoded only if it is at least CaptureRatio times
// stronger than every competing arrival; otherwise all overlapping frames
// are corrupted (a collision). With Config.SINR the pairwise test is
// replaced by cumulative-interference reception: the radio tracks the
// total in-air power and a frame decodes only if
// signal ≥ CaptureRatio · (noise + ΣI) holds whenever the interference sum
// steps up.
type Radio struct {
	id  pkt.NodeID
	ch  *Channel
	rcv Receiver

	// The per-arrival hot state — tx/busy deadlines and the SINR-mode
	// interference accumulators (summed in-air power plus an arrival count
	// so the float sum resets exactly when the air clears) — lives in the
	// channel's flat per-NodeID arrays (Channel.txUntil and friends), not
	// here: arrivals fan out across many radios per transmission, and the
	// dense arrays keep that scatter cache-resident at 10k nodes.

	rx *arrival // reception in progress, if any

	// heldUntil is when the last leg of every frame this radio sent so far
	// has finished arriving: until then some receiver may still hand that
	// frame's payload to its upper layer.
	heldUntil sim.Time

	watchdogArmed bool
	watchdogFn    sim.EventFunc // cached method value (armed per busy edge)
	notifiedBusy  bool

	// Stats.
	Collisions uint64 // receptions lost to overlapping arrivals
	Captured   uint64 // receptions that survived via capture
	TxFrames   uint64
	RxFrames   uint64
}

// ID returns the radio's node id.
func (r *Radio) ID() pkt.NodeID { return r.id }

// SetReceiver installs the upper layer. AttachRadio permits a nil receiver
// so that a MAC — which needs the radio to construct itself — can be wired
// in afterwards; no frames may arrive before the receiver is set.
func (r *Radio) SetReceiver(rcv Receiver) { r.rcv = rcv }

// Busy reports physical carrier sense: the medium is busy at this radio.
func (r *Radio) Busy() bool {
	now := r.ch.eng.Now()
	return now < r.ch.txUntil[r.id] || now < r.ch.busyUntil[r.id]
}

// BusyUntil returns the earliest time the medium could become idle given
// current knowledge (later arrivals may extend it).
func (r *Radio) BusyUntil() sim.Time {
	tx, busy := r.ch.txUntil[r.id], r.ch.busyUntil[r.id]
	if tx > busy {
		return tx
	}
	return busy
}

// HeldUntil returns when every payload this radio has transmitted has
// finished arriving at every receiver. A reception ending at exactly that
// instant may not have been delivered yet, so a sender may reuse a payload
// only once the clock is strictly past it.
func (r *Radio) HeldUntil() sim.Time { return r.heldUntil }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.ch.eng.Now() < r.ch.txUntil[r.id] }

// Transmit puts a frame on the air for dur. The MAC must not call this while
// a previous transmission is still in progress.
func (r *Radio) Transmit(payload any, dur sim.Duration) {
	now := r.ch.eng.Now()
	if now < r.ch.txUntil[r.id] {
		panic("phy: Transmit while already transmitting")
	}
	// Half-duplex: transmitting destroys any reception in progress.
	if r.rx != nil && r.rx.end > now {
		r.rx.corrupted = true
	}
	r.TxFrames++
	until := now.Add(dur)
	r.ch.txUntil[r.id] = until
	r.extendBusy(until)
	r.ch.transmit(r, payload, dur)
}

// beginArrival registers a frame starting to arrive at this radio.
func (r *Radio) beginArrival(a arrival) {
	if !r.ch.up[r.id] {
		// The radio powered down after this leg was scheduled (candidate
		// filtering stops new legs): the energy neither decodes nor
		// registers as carrier at a dead receiver.
		return
	}
	now := r.ch.eng.Now()
	r.extendBusy(a.end)

	if r.ch.cfg.SINR {
		r.beginArrivalSINR(a, now)
		return
	}

	if now < r.ch.txUntil[r.id] {
		// Receiving while transmitting is impossible; the energy still
		// occupied the medium (busy already extended).
		return
	}

	switch {
	case r.rx != nil && !r.rx.corrupted && r.rx.end > now:
		cur := r.rx
		ratio := r.ch.params.CaptureRatio
		switch {
		case cur.power >= ratio*a.power:
			// Current reception captures over the newcomer; the
			// newcomer is absorbed as noise.
			r.Captured++
			r.ch.Captures++
		case a.power >= ratio*cur.power && a.power >= r.ch.params.RxThreshold:
			// Newcomer captures: the old reception dies, the new
			// one proceeds.
			cur.corrupted = true
			r.Captured++
			r.ch.Captures++
			r.startReception(a)
		default:
			// Comparable powers: both corrupted.
			cur.corrupted = true
			r.Collisions++
			r.ch.Collisions++
		}
	default:
		if a.power >= r.ch.params.RxThreshold {
			r.startReception(a)
		}
		// Otherwise sub-reception-threshold energy: carrier sense only.
	}
}

// beginArrivalSINR is the cumulative-interference arrival path. Every
// arrival above the carrier-sense threshold joins the radio's in-air power
// sum for its whole duration (sub-CS energy never reaches the radio — the
// interference sum is floored at the CS threshold in both transmit paths,
// which is what keeps grid and brute-force candidate sets identical). The
// SINR test only needs re-evaluation when interference steps UP: the
// signal power is constant and departures only improve the ratio, so
// checking at each arrival start bounds the worst case over the frame.
func (r *Radio) beginArrivalSINR(a arrival, now sim.Time) {
	r.addAir(a.power, a.end)

	if now < r.ch.txUntil[r.id] {
		// Receiving while transmitting is impossible; the energy still
		// occupied the medium and still counts as interference for
		// frames arriving after our transmission ends.
		return
	}

	ratio := r.ch.params.CaptureRatio
	noise := r.ch.params.NoiseW
	if cur := r.rx; cur != nil && !cur.corrupted && cur.end > now {
		// airPower includes the current signal itself; everything else
		// competes with it, the newcomer included.
		if cur.power >= ratio*(noise+r.ch.airPower[r.id]-cur.power) {
			// The reception rides out the extra interference.
			r.Captured++
			r.ch.Captures++
			return
		}
		cur.corrupted = true
		r.Collisions++
		r.ch.Collisions++
		// Fall through: the newcomer may itself be decodable over the
		// wreckage (the SINR analogue of newcomer capture).
	}
	r.tryStartSINR(a, ratio, noise)
}

// tryStartSINR starts receiving a if it is decodable against the noise
// floor plus all other in-air power.
func (r *Radio) tryStartSINR(a arrival, ratio, noise float64) {
	if a.power < r.ch.params.RxThreshold {
		return
	}
	if interf := noise + r.ch.airPower[r.id] - a.power; a.power < ratio*interf {
		return
	}
	r.startReception(a)
}

// airEvent is a pooled end-of-arrival marker for SINR interference
// accounting: it removes the arrival's power from the radio's in-air sum
// when the frame leaves the air.
type airEvent struct {
	r     *Radio
	power float64
	fire  sim.EventFunc
}

func (c *Channel) allocAir() *airEvent {
	if n := len(c.airPool); n > 0 {
		ae := c.airPool[n-1]
		c.airPool[n-1] = nil
		c.airPool = c.airPool[:n-1]
		return ae
	}
	ae := &airEvent{}
	ae.fire = func() {
		r := ae.r
		ch := r.ch
		ch.airCount[r.id]--
		if ch.airCount[r.id] == 0 {
			// Reset exactly: float subtraction of every departure would
			// otherwise leave residue that drifts across a long run.
			ch.airPower[r.id] = 0
		} else {
			ch.airPower[r.id] -= ae.power
		}
		ae.r = nil
		ch.airPool = append(ch.airPool, ae)
	}
	return ae
}

// addAir adds an arrival's power to the in-air sum until end.
func (r *Radio) addAir(power float64, end sim.Time) {
	r.ch.airCount[r.id]++
	r.ch.airPower[r.id] += power
	ae := r.ch.allocAir()
	ae.r = r
	ae.power = power
	r.ch.ends.Schedule(end, ae.fire)
}

// receptionEvent is a pooled in-progress reception: the end-of-frame
// closure is created once per pooled struct. The arrival lives inside the
// struct so r.rx and the corrupting writers share one instance; the struct
// returns to the pool when its end event fires.
type receptionEvent struct {
	r    *Radio
	a    arrival
	fire sim.EventFunc
}

func (c *Channel) allocReception() *receptionEvent {
	if n := len(c.rxPool); n > 0 {
		re := c.rxPool[n-1]
		c.rxPool[n-1] = nil
		c.rxPool = c.rxPool[:n-1]
		return re
	}
	re := &receptionEvent{}
	re.fire = func() {
		r := re.r
		r.finishReception(&re.a)
		re.r, re.a = nil, arrival{}
		r.ch.rxPool = append(r.ch.rxPool, re)
	}
	return re
}

func (r *Radio) startReception(a arrival) {
	re := r.ch.allocReception()
	re.r = r
	re.a = a
	r.rx = &re.a
	r.ch.ends.Schedule(a.end, re.fire)
}

func (r *Radio) finishReception(a *arrival) {
	if r.rx == a {
		r.rx = nil
	}
	if a.corrupted {
		return
	}
	// A transmission that started mid-reception corrupts it (also handled
	// in Transmit, but guard against exact-tie orderings).
	if r.ch.eng.Now() < r.ch.txUntil[r.id] {
		return
	}
	r.RxFrames++
	r.ch.Deliveries++
	if r.rcv != nil {
		r.rcv.OnReceive(a.payload, a.from, a.power)
	}
}

// extendBusy pushes out the busy horizon and manages idle/busy edge
// notifications to the MAC.
func (r *Radio) extendBusy(until sim.Time) {
	now := r.ch.eng.Now()
	if until > r.ch.busyUntil[r.id] {
		r.ch.busyUntil[r.id] = until
	}
	if !r.notifiedBusy && r.BusyUntil() > now {
		r.notifiedBusy = true
		if r.rcv != nil {
			r.rcv.OnChannelBusy()
		}
	}
	r.armWatchdog()
}

func (r *Radio) armWatchdog() {
	if r.watchdogArmed {
		return
	}
	until := r.BusyUntil()
	now := r.ch.eng.Now()
	if until <= now {
		return
	}
	r.watchdogArmed = true
	if r.watchdogFn == nil {
		r.watchdogFn = r.watchdogFire
	}
	r.ch.ends.Schedule(until, r.watchdogFn)
}

func (r *Radio) watchdogFire() {
	r.watchdogArmed = false
	now := r.ch.eng.Now()
	if r.BusyUntil() > now {
		r.armWatchdog()
		return
	}
	if r.notifiedBusy {
		r.notifiedBusy = false
		if r.rcv != nil {
			r.rcv.OnChannelIdle()
		}
	}
}
