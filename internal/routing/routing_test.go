package routing

import (
	"testing"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

func mkBuf(capacity int, timeout sim.Duration) (*SendBuffer, *[]string) {
	var log []string
	b := NewSendBuffer(capacity, timeout, func(p *pkt.Packet, timedOut bool) {
		if timedOut {
			log = append(log, "timeout")
		} else {
			log = append(log, "evict")
		}
	})
	return b, &log
}

func dp(dst pkt.NodeID, seq uint32) *pkt.Packet {
	return pkt.DataPacket(0, dst, seq, 64, 0)
}

func TestSendBufferPopDest(t *testing.T) {
	b, _ := mkBuf(8, sim.Second)
	b.Push(dp(1, 0), 0)
	b.Push(dp(2, 1), 0)
	b.Push(dp(1, 2), 0)
	if !b.HasDest(1, 0) || !b.HasDest(2, 0) || b.HasDest(3, 0) {
		t.Fatal("HasDest wrong")
	}
	got := b.PopDest(1, 0)
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 2 {
		t.Fatalf("PopDest = %v", got)
	}
	if len(b.items) != 1 {
		t.Fatalf("%d packets buffered, want 1", len(b.items))
	}
	if len(b.PopDest(1, 0)) != 0 {
		t.Fatal("double pop returned packets")
	}
}

func TestSendBufferTimeout(t *testing.T) {
	b, log := mkBuf(8, sim.Seconds(5))
	b.Push(dp(1, 0), sim.At(0))
	b.Push(dp(1, 1), sim.At(3))
	// At t=6 the first packet is expired, the second is not.
	got := b.PopDest(1, sim.At(6))
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("PopDest after expiry = %v", got)
	}
	if len(*log) != 1 || (*log)[0] != "timeout" {
		t.Fatalf("drop log = %v", *log)
	}
}

func TestSendBufferOverflowEvictsOldest(t *testing.T) {
	b, log := mkBuf(2, sim.Second*100)
	b.Push(dp(1, 0), 0)
	b.Push(dp(1, 1), 0)
	b.Push(dp(1, 2), 0)
	got := b.PopDest(1, 0)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("overflow kept %v", got)
	}
	if len(*log) != 1 || (*log)[0] != "evict" {
		t.Fatalf("drop log = %v", *log)
	}
}

func TestSendBufferDefaults(t *testing.T) {
	b := NewSendBuffer(0, 0, func(*pkt.Packet, bool) {})
	for i := 0; i < DefaultSendBufferCap; i++ {
		b.Push(dp(1, uint32(i)), 0)
	}
	if len(b.items) != DefaultSendBufferCap {
		t.Fatalf("default capacity = %d", len(b.items))
	}
}

func TestSeenCacheBasics(t *testing.T) {
	c := NewSeenCache(10 * sim.Second)
	k := SeenKey{Origin: 3, ID: 7}
	if c.Seen(k, sim.At(0)) {
		t.Fatal("fresh key reported seen")
	}
	if !c.Seen(k, sim.At(1)) {
		t.Fatal("repeat not detected")
	}
	if c.Seen(SeenKey{Origin: 3, ID: 8}, sim.At(1)) {
		t.Fatal("different id collided")
	}
	if c.Seen(SeenKey{Origin: 4, ID: 7}, sim.At(1)) {
		t.Fatal("different origin collided")
	}
}

func TestSeenCacheExpiry(t *testing.T) {
	c := NewSeenCache(5 * sim.Second)
	k := SeenKey{Origin: 1, ID: 1}
	c.Seen(k, sim.At(0))
	if c.Seen(k, sim.At(6)) {
		t.Fatal("expired entry still suppressing")
	}
	if !c.Seen(k, sim.At(7)) {
		t.Fatal("re-recorded entry not seen")
	}
}

func TestSeenCacheGC(t *testing.T) {
	c := NewSeenCache(sim.Second)
	for i := uint32(0); i < 5000; i++ {
		c.Seen(SeenKey{Origin: 1, ID: i}, sim.At(float64(i)*0.001))
	}
	// GC must have run (map bounded); functional check: old entries gone.
	if c.Seen(SeenKey{Origin: 1, ID: 0}, sim.At(10)) {
		t.Fatal("ancient entry survived")
	}
	if len(c.seen) > 4096 {
		t.Fatalf("expired entries not swept: %d keys", len(c.seen))
	}

	// All-live keys (FLOOD's 60 s horizon under load): a sweep that frees
	// nothing must not repeat until the map has doubled, so 20 000 inserts
	// sweep O(log n) times, and every answer is what it was.
	c = NewSeenCache(60 * sim.Second)
	const n = 20000
	sweeps, last := 0, c.sweepAt
	for i := uint32(0); i < n; i++ {
		if c.Seen(SeenKey{Origin: 2, ID: i}, sim.At(float64(i)*0.001)) {
			t.Fatalf("fresh key %d reported seen", i)
		}
		if c.sweepAt != last {
			sweeps, last = sweeps+1, c.sweepAt
		}
	}
	if sweeps < 1 || sweeps > 3 { // 4096 → 8194 → 16390 → 32782
		t.Fatalf("%d sweeps over %d all-live inserts, want 1..3", sweeps, n)
	}
	if len(c.seen) != n {
		t.Fatalf("live keys lost: %d of %d", len(c.seen), n)
	}
	for i := uint32(0); i < n; i += 97 {
		if !c.Seen(SeenKey{Origin: 2, ID: i}, sim.At(21)) {
			t.Fatalf("live key %d forgotten", i)
		}
	}
	if c.Seen(SeenKey{Origin: 2, ID: 0}, sim.At(61)) {
		t.Fatal("key past the horizon still suppressing")
	}
}
