package phy

import (
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

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

	txUntil   sim.Time // transmitting until (zero: idle)
	busyUntil sim.Time // medium observed busy until (any arrival ≥ CS, or own tx)
	// SINR mode: the summed power of every in-air arrival, and their count
	// so that the float sum resets exactly when the air clears.
	airPower float64
	airCount int32

	rx *legEvent // reception in progress, if any

	// heldUntil is when the last leg of every frame this radio sent so far
	// has finished arriving: until then some receiver may still hand that
	// frame's payload to its upper layer.
	heldUntil sim.Time

	watchdogArmed bool
	watchdogFn    sim.EventFunc // r.watchdogFire, bound once in AttachRadio
	notifiedBusy  bool
}

// SetReceiver installs the upper layer. AttachRadio permits a nil receiver
// so that a MAC — which needs the radio to construct itself — can be wired
// in afterwards; no frames may arrive before the receiver is set.
func (r *Radio) SetReceiver(rcv Receiver) { r.rcv = rcv }

// Busy reports physical carrier sense: the medium is busy at this radio.
func (r *Radio) Busy() bool {
	now := r.ch.eng.Now()
	return now < r.txUntil || now < r.busyUntil
}

// BusyUntil returns the earliest time the medium could become idle given
// current knowledge (later arrivals may extend it).
func (r *Radio) BusyUntil() sim.Time {
	if r.txUntil > r.busyUntil {
		return r.txUntil
	}
	return r.busyUntil
}

// HeldUntil returns when every payload this radio has transmitted has
// finished arriving at every receiver. A reception ending at exactly that
// instant may not have been delivered yet, so a sender may reuse a payload
// only once the clock is strictly past it.
func (r *Radio) HeldUntil() sim.Time { return r.heldUntil }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.ch.eng.Now() < r.txUntil }

// Transmit puts a frame on the air for dur. The MAC must not call this while
// a previous transmission is still in progress.
func (r *Radio) Transmit(payload any, dur sim.Duration) {
	now := r.ch.eng.Now()
	if now < r.txUntil {
		panic("phy: Transmit while already transmitting")
	}
	// Half-duplex: transmitting destroys any reception in progress.
	if r.rx != nil && r.rx.end > now {
		r.rx.corrupted = true
	}
	r.txUntil = now.Add(dur)
	r.extendBusy(r.txUntil)
	r.ch.transmit(r, payload, dur)
}

// legEvent is one transmission as seen by one receiver: a leg, from the
// moment transmit schedules it until the last callback it scheduled has run.
// Its two callbacks are bound once per pooled struct, so steady-state
// propagation allocates nothing. arrive fires when the leg lands. leave fires
// at the leg's end, once for each thing the arrival started: the SINR air
// departure and a reception's end, in that order, because the air sum is
// joined before a reception starts and both are scheduled at end. refs counts
// the callbacks still pending; at zero the struct returns to the pool, so a
// reception in progress (Radio.rx) always points at a live leg.
type legEvent struct {
	to        *Radio
	payload   any
	from      pkt.NodeID
	power     float64
	end       sim.Time
	corrupted bool
	inAir     bool // SINR mode: still counted in to's in-air sum
	refs      int32
	arrive    sim.EventFunc
	leave     sim.EventFunc
}

func (c *Channel) allocLeg() *legEvent {
	if n := len(c.legPool); n > 0 {
		le := c.legPool[n-1]
		c.legPool[n-1] = nil
		c.legPool = c.legPool[:n-1]
		return le
	}
	le := &legEvent{}
	le.arrive = func() {
		le.to.beginArrival(le)
		le.release()
	}
	le.leave = func() {
		r := le.to
		switch {
		case !le.inAir:
			r.finishReception(le)
		case r.airCount == 1:
			// Reset exactly: float subtraction of every departure would
			// otherwise leave residue that drifts across a long run.
			le.inAir, r.airCount, r.airPower = false, 0, 0
		default:
			le.inAir = false
			r.airCount--
			r.airPower -= le.power
		}
		le.release()
	}
	return le
}

// await schedules leave at the leg's end.
func (le *legEvent) await() {
	le.refs++
	le.to.ch.ends.Schedule(le.end, le.leave)
}

// release drops one pending callback's hold and pools the leg after the last.
func (le *legEvent) release() {
	le.refs--
	if le.refs > 0 {
		return
	}
	c := le.to.ch
	le.payload = nil
	c.legPool = append(c.legPool, le)
}

// beginArrival registers a leg starting to arrive at this radio.
func (r *Radio) beginArrival(le *legEvent) {
	if !r.ch.up[r.id] {
		// The radio powered down after this leg was scheduled (candidate
		// filtering stops new legs): the energy neither decodes nor
		// registers as carrier at a dead receiver.
		return
	}
	now := r.ch.eng.Now()
	r.extendBusy(le.end)

	if r.ch.cfg.SINR {
		r.beginArrivalSINR(le, now)
		return
	}

	if now < r.txUntil {
		// Receiving while transmitting is impossible; the energy still
		// occupied the medium (busy already extended).
		return
	}

	switch {
	case r.rx != nil && !r.rx.corrupted && r.rx.end > now:
		cur := r.rx
		ratio := r.ch.params.CaptureRatio
		switch {
		case cur.power >= ratio*le.power:
			// Current reception captures over the newcomer; the
			// newcomer is absorbed as noise.
			r.ch.Captures++
		case le.power >= ratio*cur.power && le.power >= r.ch.params.RxThreshold:
			// Newcomer captures: the old reception dies, the new
			// one proceeds.
			cur.corrupted = true
			r.ch.Captures++
			r.startReception(le)
		default:
			// Comparable powers: both corrupted.
			cur.corrupted = true
			r.ch.Collisions++
		}
	default:
		if le.power >= r.ch.params.RxThreshold {
			r.startReception(le)
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
func (r *Radio) beginArrivalSINR(le *legEvent, now sim.Time) {
	r.airCount++
	r.airPower += le.power
	le.inAir = true
	le.await()

	if now < r.txUntil {
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
		if cur.power >= ratio*(noise+r.airPower-cur.power) {
			// The reception rides out the extra interference.
			r.ch.Captures++
			return
		}
		cur.corrupted = true
		r.ch.Collisions++
		// Fall through: the newcomer may itself be decodable over the
		// wreckage (the SINR analogue of newcomer capture).
	}
	// Decodable against the noise floor plus all other in-air power?
	if le.power < r.ch.params.RxThreshold || le.power < ratio*(noise+r.airPower-le.power) {
		return
	}
	r.startReception(le)
}

func (r *Radio) startReception(le *legEvent) {
	r.rx = le
	le.await()
}

func (r *Radio) finishReception(le *legEvent) {
	if r.rx == le {
		r.rx = nil
	}
	if le.corrupted {
		return
	}
	// A transmission that started mid-reception corrupts it (also handled
	// in Transmit, but guard against exact-tie orderings).
	if r.ch.eng.Now() < r.txUntil {
		return
	}
	r.ch.Deliveries++
	if r.rcv != nil {
		r.rcv.OnReceive(le.payload, le.from, le.power)
	}
}

// extendBusy pushes out the busy horizon and manages idle/busy edge
// notifications to the MAC.
func (r *Radio) extendBusy(until sim.Time) {
	now := r.ch.eng.Now()
	if until > r.busyUntil {
		r.busyUntil = until
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
