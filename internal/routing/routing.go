// Package routing hosts the mechanics the routing protocols share: the Base
// every agent embeds (jittered relays and beacons), the send buffer and
// Discovery loop of the on-demand protocols, the SourceRouter toolkit of the
// protocols that carry routes in packet headers, and a duplicate cache for
// flood suppression. The protocols themselves live in subpackages.
package routing

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// BroadcastJitter is the maximum random delay inserted before rebroadcasting
// a flooded routing message, breaking the synchronization of neighbours that
// all received the same broadcast at the same instant (ns-2 uses a similar
// 10 ms jitter).
const BroadcastJitter = 10 * sim.Millisecond

// Base is embedded by every routing agent: it holds the node's Env, leaves
// the two hooks most protocols ignore empty, and is the one place a relayed
// flood or a beacon is jittered.
type Base struct{ Env network.Env }

// Snoop implements network.Protocol for agents that do not overhear.
func (*Base) Snoop(*pkt.Packet, pkt.NodeID, pkt.NodeID, float64) {}

// MacSent implements network.Protocol for agents that ignore MAC completion.
func (*Base) MacSent(*pkt.Packet, pkt.NodeID) {}

// JitterIn runs fn after delay plus a uniform draw below BroadcastJitter.
func (b *Base) JitterIn(delay sim.Duration, fn sim.EventFunc) {
	b.Env.Engine().ScheduleIn(delay+b.Env.RNG().Jitter(BroadcastJitter), fn)
}

// Rebroadcast relays flooded packet p to every neighbour after the jitter.
func (b *Base) Rebroadcast(p *pkt.Packet) {
	b.JitterIn(0, func() { b.Env.SendMac(p, pkt.Broadcast) })
}

// Beacon calls fn every interval ±10 % (neighbours must not stay in step),
// the first time after a uniform draw below spread.
func (b *Base) Beacon(interval, spread sim.Duration, fn sim.EventFunc) {
	tk := sim.NewTicker(b.Env.Engine(), interval, fn)
	tk.Jitter = func() sim.Duration {
		return interval - interval/10 + b.Env.RNG().Jitter(interval/5)
	}
	tk.StartIn(b.Env.RNG().Jitter(spread))
}

// SeqNewer reports whether sequence number a is fresher than b
// (wraparound-aware).
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// DefaultSendBufferCap and DefaultSendBufferTimeout follow the CMU
// configuration: 64 packets held at the originator for at most 30 s while a
// route is sought.
const (
	DefaultSendBufferCap     = 64
	DefaultSendBufferTimeout = 30 * sim.Second
)

type buffered struct {
	p       *pkt.Packet
	expires sim.Time
}

// SendBuffer holds originated data packets awaiting a route. Expiry is
// enforced lazily on access; OnDrop is invoked for packets that time out or
// are evicted by overflow.
type SendBuffer struct {
	cap     int
	timeout sim.Duration
	items   []buffered
	// OnDrop is called for each evicted/expired packet (required).
	OnDrop func(p *pkt.Packet, timeout bool)
}

// NewSendBuffer creates a buffer with the given capacity and per-packet
// timeout; zero values select the CMU defaults.
func NewSendBuffer(capacity int, timeout sim.Duration, onDrop func(p *pkt.Packet, timeout bool)) *SendBuffer {
	if capacity <= 0 {
		capacity = DefaultSendBufferCap
	}
	if timeout <= 0 {
		timeout = DefaultSendBufferTimeout
	}
	return &SendBuffer{cap: capacity, timeout: timeout, OnDrop: onDrop}
}

// Push adds p at time now, evicting the oldest packet if full.
func (b *SendBuffer) Push(p *pkt.Packet, now sim.Time) {
	b.expire(now)
	if len(b.items) >= b.cap {
		oldest := b.items[0]
		copy(b.items, b.items[1:])
		b.items = b.items[:len(b.items)-1]
		b.OnDrop(oldest.p, false)
	}
	b.items = append(b.items, buffered{p: p, expires: now.Add(b.timeout)})
}

// PopDest removes and returns all buffered packets for dst, oldest first.
func (b *SendBuffer) PopDest(dst pkt.NodeID, now sim.Time) []*pkt.Packet {
	b.expire(now)
	var out []*pkt.Packet
	kept := b.items[:0]
	for _, it := range b.items {
		if it.p.Dst == dst {
			out = append(out, it.p)
		} else {
			kept = append(kept, it)
		}
	}
	for i := len(kept); i < len(b.items); i++ {
		b.items[i] = buffered{}
	}
	b.items = kept
	return out
}

// HasDest reports whether any packet for dst is buffered.
func (b *SendBuffer) HasDest(dst pkt.NodeID, now sim.Time) bool {
	b.expire(now)
	for _, it := range b.items {
		if it.p.Dst == dst {
			return true
		}
	}
	return false
}

func (b *SendBuffer) expire(now sim.Time) {
	kept := b.items[:0]
	for _, it := range b.items {
		if it.expires.After(now) {
			kept = append(kept, it)
		} else {
			b.OnDrop(it.p, true)
		}
	}
	for i := len(kept); i < len(b.items); i++ {
		b.items[i] = buffered{}
	}
	b.items = kept
}

// SeenKey identifies a flooded message instance (origin + per-origin id).
type SeenKey struct {
	Origin pkt.NodeID
	ID     uint32
}

// SeenCache suppresses duplicate flooded messages, expiring entries after a
// horizon so that per-origin id wraparound in very long runs is harmless.
type SeenCache struct {
	horizon sim.Duration
	seen    map[SeenKey]sim.Time
	sweepAt int // map size past which expired entries are swept out
}

// seenSweepMin is the smallest map worth sweeping.
const seenSweepMin = 4096

// NewSeenCache creates a cache whose entries expire after horizon.
func NewSeenCache(horizon sim.Duration) *SeenCache {
	return &SeenCache{horizon: horizon, seen: make(map[SeenKey]sim.Time), sweepAt: seenSweepMin}
}

// Seen records key at time now and reports whether it was already present
// (and unexpired).
func (c *SeenCache) Seen(key SeenKey, now sim.Time) bool {
	if t, ok := c.seen[key]; ok && now.Sub(t) < c.horizon {
		return true
	}
	c.seen[key] = now
	if len(c.seen) > c.sweepAt {
		c.gc(now)
		// Sweep again only once the map has doubled past the survivors:
		// a sweep that frees nothing must not repeat on every insert.
		c.sweepAt = max(seenSweepMin, 2*len(c.seen))
	}
	return false
}

func (c *SeenCache) gc(now sim.Time) {
	for k, t := range c.seen {
		if now.Sub(t) >= c.horizon {
			delete(c.seen, k)
		}
	}
}
