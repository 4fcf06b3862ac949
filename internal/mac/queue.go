package mac

import "adhocsim/internal/pkt"

// outPkt is a queued network-layer packet with its resolved next hop.
type outPkt struct {
	p  *pkt.Packet
	to pkt.NodeID
}

// ifQueue is the bounded interface queue between the network layer and the
// MAC. Mirroring the CMU ns-2 "priority queue", routing-protocol packets are
// enqueued ahead of data packets (control traffic must not starve behind a
// congested data backlog, or every protocol collapses identically). Within a
// class the order is FIFO; when full the incoming packet is dropped
// (drop-tail).
type ifQueue struct {
	items []outPkt
	limit int
	// nRouting is the number of routing packets at the head of items.
	nRouting int
}

// queueLimit is the interface queue depth of every MAC, 50 as in ns-2.
const queueLimit = 50

func newIfQueue(limit int) *ifQueue { return &ifQueue{limit: limit} }

// push enqueues op. It reports false (and drops) when the queue is full.
func (q *ifQueue) push(op outPkt) bool {
	if len(q.items) >= q.limit {
		return false
	}
	if op.p.Kind == pkt.KindRouting {
		// Insert after the existing routing packets, before data.
		q.items = append(q.items, outPkt{})
		copy(q.items[q.nRouting+1:], q.items[q.nRouting:])
		q.items[q.nRouting] = op
		q.nRouting++
		return true
	}
	q.items = append(q.items, op)
	return true
}

// pop dequeues the highest-priority packet, or ok=false when empty.
func (q *ifQueue) pop() (outPkt, bool) {
	if len(q.items) == 0 {
		return outPkt{}, false
	}
	op := q.items[0]
	n := len(q.items) - 1
	copy(q.items, q.items[1:])
	q.items[n] = outPkt{} // the vacated slot must not keep a packet alive
	q.items = q.items[:n]
	if q.nRouting > 0 {
		q.nRouting--
	}
	return op, true
}

// holds reports whether p is queued.
func (q *ifQueue) holds(p *pkt.Packet) bool {
	for _, op := range q.items {
		if op.p == p {
			return true
		}
	}
	return false
}

// removeDest drops every queued packet whose next hop is to, returning the
// removed packets. Routing protocols call this when a link is declared
// broken so queued traffic can be salvaged or rerouted instead of being
// hammered at a dead neighbour.
func (q *ifQueue) removeDest(to pkt.NodeID) []outPkt {
	var removed []outPkt
	kept := q.items[:0]
	nRouting := 0
	for i, op := range q.items {
		if op.to == to {
			removed = append(removed, op)
			continue
		}
		if i < q.nRouting {
			nRouting++
		}
		kept = append(kept, op)
	}
	// Zero the tail so packets aren't retained.
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = outPkt{}
	}
	q.items = kept
	q.nRouting = nRouting
	return removed
}
