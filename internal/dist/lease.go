package dist

import (
	"strconv"
	"sync"
	"time"
)

// Lease is one unit of work handed to a worker with a deadline. A worker
// renews the lease while executing; a lease whose deadline passes without
// renewal is presumed lost (worker death, network partition) and its unit
// is re-issued, so a killed worker loses nothing but the wall clock its
// in-flight run had consumed. Duplicated execution after a false-positive
// expiry is harmless: runs are deterministic and the campaign engine keeps
// the first committed result.
type Lease struct {
	ID       string
	Campaign string
	Cell     int
	Rep      int
	Worker   string
	Deadline time.Time
}

// leaseTable tracks outstanding leases. The clock is injectable for tests.
type leaseTable struct {
	mu     sync.Mutex
	now    func() time.Time
	seq    int
	leases map[string]*Lease
}

func newLeaseTable(now func() time.Time) *leaseTable {
	if now == nil {
		now = time.Now
	}
	return &leaseTable{now: now, leases: make(map[string]*Lease)}
}

// grant issues a new lease for the unit.
func (t *leaseTable) grant(campaignID string, cell, rep int, worker string, ttl time.Duration) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	l := &Lease{
		ID:       "l" + strconv.Itoa(t.seq),
		Campaign: campaignID,
		Cell:     cell,
		Rep:      rep,
		Worker:   worker,
		Deadline: t.now().Add(ttl),
	}
	t.leases[l.ID] = l
	return l
}

// renew pushes the deadline out by ttl; it fails on unknown (expired,
// released, campaign-dropped) leases, which tells the worker its run is
// orphaned and should be abandoned.
func (t *leaseTable) renew(id string, ttl time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if !ok {
		return false
	}
	l.Deadline = t.now().Add(ttl)
	return true
}

// release removes a lease (commit landed, or the worker gave the unit
// back) and returns it so the caller can re-queue the unit if needed.
func (t *leaseTable) release(id string) (*Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if ok {
		delete(t.leases, id)
	}
	return l, ok
}

// releaseFor removes a lease only if it was granted for the given unit. A
// commit releases the lease its unit ran under and never another one: a
// mismatched or guessed id must not orphan a unit another worker holds.
func (t *leaseTable) releaseFor(id, campaignID string, cell, rep int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.leases[id]; ok && l.Campaign == campaignID && l.Cell == cell && l.Rep == rep {
		delete(t.leases, id)
	}
}

// expire removes and returns every lease whose deadline has passed.
func (t *leaseTable) expire() []*Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []*Lease
	for id, l := range t.leases {
		if now.After(l.Deadline) {
			delete(t.leases, id)
			out = append(out, l)
		}
	}
	return out
}

// dropCampaign removes every lease of one campaign (it finished or was
// cancelled) and returns how many were outstanding.
func (t *leaseTable) dropCampaign(campaignID string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, l := range t.leases {
		if l.Campaign == campaignID {
			delete(t.leases, id)
			n++
		}
	}
	return n
}

// count reports outstanding leases, optionally filtered by campaign
// ("" = all).
func (t *leaseTable) count(campaignID string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if campaignID == "" {
		return len(t.leases)
	}
	n := 0
	for _, l := range t.leases {
		if l.Campaign == campaignID {
			n++
		}
	}
	return n
}
