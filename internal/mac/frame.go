// Package mac implements a IEEE 802.11 DCF-style medium access control
// layer over the phy channel: CSMA/CA with slotted binary-exponential
// backoff, virtual carrier sense (NAV), an optional RTS/CTS exchange for
// unicast data, positive ACKs with retry limits, and a bounded drop-tail
// interface queue that gives routing packets priority (as the CMU ns-2
// extensions do).
//
// Simplifications relative to the full standard: no fragmentation and a
// single data rate for control and data frames. Known gaps against the
// models the study is read beside, unmeasured for the routing comparison:
//   - backoff freezes as remaining time, banking a partial slot, where
//     ns-2's BackoffTimer::pause subtracts whole slots only;
//   - no EIFS after a frame received in error;
//   - finite retry limits (ShortRetryLimit, LongRetryLimit), where
//     Bianchi's saturation model assumes a packet retries until it is sent.
package mac

import (
	"fmt"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// FrameKind enumerates 802.11 frame types used by the DCF.
type FrameKind uint8

const (
	// FrameData carries a network-layer packet.
	FrameData FrameKind = iota
	// FrameRTS is a request-to-send.
	FrameRTS
	// FrameCTS is a clear-to-send.
	FrameCTS
	// FrameAck is a positive acknowledgement.
	FrameAck
)

func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "DATA"
	case FrameRTS:
		return "RTS"
	case FrameCTS:
		return "CTS"
	case FrameAck:
		return "ACK"
	default:
		return fmt.Sprintf("frame(%d)", uint8(k))
	}
}

// Frame is the on-air unit.
type Frame struct {
	Kind FrameKind
	From pkt.NodeID
	To   pkt.NodeID // pkt.Broadcast for broadcast data
	// NAV is the duration-field: time the exchange will continue to
	// occupy the medium after this frame ends. Third parties defer for it.
	NAV sim.Duration
	// Seq is the MAC sequence number, used for duplicate detection of
	// retransmitted data frames.
	Seq uint16
	// Pkt is the carried packet (data frames only).
	Pkt *pkt.Packet
}

// String renders the frame compactly for traces.
func (f *Frame) String() string {
	if f.Kind == FrameData {
		return fmt.Sprintf("%v %v->%v seq=%d [%v]", f.Kind, f.From, f.To, f.Seq, f.Pkt)
	}
	return fmt.Sprintf("%v %v->%v", f.Kind, f.From, f.To)
}

// 802.11 DSSS timing and framing constants at 2 Mbit/s, matching the CMU
// ns-2 configuration used by the study family.
const (
	SlotTime = 20 * sim.Microsecond
	SIFS     = 10 * sim.Microsecond
	DIFS     = 50 * sim.Microsecond // SIFS + 2·slot

	// PLCPOverhead is the preamble+header airtime prepended to every
	// frame (long preamble at 1 Mbit/s).
	PLCPOverhead = 192 * sim.Microsecond

	// BitRate is the channel rate for all MAC payloads.
	BitRate = 2_000_000 // bits per second

	CWMin = 31
	CWMax = 1023

	// ShortRetryLimit bounds RTS attempts, LongRetryLimit data attempts.
	ShortRetryLimit = 7
	LongRetryLimit  = 4

	// Frame sizes in bytes (header + FCS).
	RTSBytes     = 20
	CTSBytes     = 14
	AckBytes     = 14
	DataHdrBytes = 28 // 24-byte MAC header + 4-byte FCS
)

// TxTime returns the airtime of a frame with the given total byte count.
func TxTime(bytes int) sim.Duration {
	return PLCPOverhead + sim.Duration(bytes)*8*sim.Second/BitRate
}

// FrameBytes returns the total on-air size of f, including MAC framing.
func FrameBytes(f *Frame) int {
	switch f.Kind {
	case FrameRTS:
		return RTSBytes
	case FrameCTS:
		return CTSBytes
	case FrameAck:
		return AckBytes
	default:
		return DataHdrBytes + f.Pkt.Size
	}
}

// FrameTxTime returns the airtime of f.
func FrameTxTime(f *Frame) sim.Duration { return TxTime(FrameBytes(f)) }
