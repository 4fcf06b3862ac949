package mac

import (
	"math/rand"
	"testing"

	"adhocsim/internal/pkt"
)

func TestQueuePropertyRoutingBeforeData(t *testing.T) {
	// Whatever the interleaving of pushes, every pop must return all
	// remaining routing packets before any data packet, and preserve FIFO
	// order within each class.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		q := newIfQueue(64)
		var wantRouting, wantData []uint64
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				p := pkt.RoutingPacket("X", 0, 1, 1, 8, 0)
				q.push(outPkt{p: p, to: 1})
				wantRouting = append(wantRouting, p.UID)
			} else {
				p := pkt.DataPacket(0, 1, 0, 8, 0)
				q.push(outPkt{p: p, to: 1})
				wantData = append(wantData, p.UID)
			}
		}
		want := append(wantRouting, wantData...)
		for i, w := range want {
			got, ok := q.pop()
			if !ok {
				t.Fatalf("trial %d: queue empty at %d", trial, i)
			}
			if got.p.UID != w {
				t.Fatalf("trial %d: pop %d = uid %d, want %d", trial, i, got.p.UID, w)
			}
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("trial %d: extra packet", trial)
		}
	}
}

func TestQueuePropertyRemoveDestPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		q := newIfQueue(64)
		type rec struct {
			uid uint64
			to  pkt.NodeID
		}
		var all []rec
		for i := 0; i < 30; i++ {
			to := pkt.NodeID(r.Intn(3))
			var p *pkt.Packet
			if r.Intn(3) == 0 {
				p = pkt.RoutingPacket("X", 0, to, 1, 8, 0)
			} else {
				p = pkt.DataPacket(0, to, 0, 8, 0)
			}
			q.push(outPkt{p: p, to: to})
			all = append(all, rec{p.UID, to})
		}
		removed := q.removeDest(1)
		for _, op := range removed {
			if op.to != 1 {
				t.Fatal("removed wrong destination")
			}
		}
		var prevRoutingDone bool
		var got []rec
		for {
			op, ok := q.pop()
			if !ok {
				break
			}
			if op.to == 1 {
				t.Fatal("survivor headed to removed destination")
			}
			if op.p.Kind == pkt.KindRouting && prevRoutingDone {
				t.Fatal("routing packet after data packet")
			}
			if op.p.Kind == pkt.KindData {
				prevRoutingDone = true
			}
			got = append(got, rec{op.p.UID, op.to})
		}
		if len(got)+len(removed) != len(all) {
			t.Fatalf("lost packets: %d+%d != %d", len(got), len(removed), len(all))
		}
	}
}

// TestQueueLimitZeroUsesDefault: a MAC built from the zero Config queues 50
// packets, as ns-2 does.
func TestQueueLimitZeroUsesDefault(t *testing.T) {
	q := chainRig(2, 150, Config{}).macs[0].queue
	for i := 0; i < 50; i++ {
		if !q.push(outPkt{p: pkt.DataPacket(0, 1, uint32(i), 8, 0), to: 1}) {
			t.Fatalf("default-limit queue full at %d", i)
		}
	}
	if q.push(outPkt{p: pkt.DataPacket(0, 1, 99, 8, 0), to: 1}) {
		t.Fatal("51st packet accepted with default limit 50")
	}
}

// TestQueueKeepsNoDeadPackets pins that a packet leaves the queue's backing
// array with the packet: after any mix of pushes, pops and removeDest, no
// slot past the queue's length holds a packet, and holds finds exactly the
// packets still queued.
func TestQueueKeepsNoDeadPackets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	q := newIfQueue(16)
	var gone []*pkt.Packet
	for step := 0; step < 2000; step++ {
		switch k := r.Intn(10); {
		case k < 5:
			to := pkt.NodeID(r.Intn(3))
			p := pkt.DataPacket(0, to, 0, 8, 0)
			if r.Intn(2) == 0 {
				p = pkt.RoutingPacket("X", 0, to, 1, 8, 0)
			}
			q.push(outPkt{p: p, to: to})
		case k < 9:
			if op, ok := q.pop(); ok {
				gone = append(gone, op.p)
			}
		default:
			for _, op := range q.removeDest(pkt.NodeID(r.Intn(3))) {
				gone = append(gone, op.p)
			}
		}
		for i, op := range q.items[len(q.items):cap(q.items)] {
			if op.p != nil {
				t.Fatalf("step %d: slot %d past length %d holds %v", step, len(q.items)+i, len(q.items), op.p)
			}
		}
		for _, p := range gone[max(0, len(gone)-4):] {
			if q.holds(p) {
				t.Fatalf("step %d: holds a packet that left the queue", step)
			}
		}
		for _, op := range q.items {
			if !q.holds(op.p) {
				t.Fatalf("step %d: does not hold a queued packet", step)
			}
		}
	}
}
