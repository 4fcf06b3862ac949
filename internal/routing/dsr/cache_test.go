package dsr

import (
	"testing"
	"testing/quick"

	"adhocsim/internal/pkt"
)

func ids(ns ...int32) []pkt.NodeID {
	out := make([]pkt.NodeID, len(ns))
	for i, n := range ns {
		out[i] = pkt.NodeID(n)
	}
	return out
}

func TestCacheFindExact(t *testing.T) {
	c := NewPathCache(0, 8)
	c.Add(ids(0, 1, 2, 3))
	got := c.Find(3)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("Find = %v", got)
	}
	if c.Find(9) != nil {
		t.Fatal("found nonexistent destination")
	}
}

func TestCacheFindSubpath(t *testing.T) {
	// Owner 2 can extract 2→4 from a path 0..5 passing through it.
	c := NewPathCache(2, 8)
	c.Add(ids(0, 1, 2, 3, 4, 5))
	got := c.Find(4)
	want := ids(2, 3, 4)
	if len(got) != 3 {
		t.Fatalf("Find = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Find = %v, want %v", got, want)
		}
	}
	// Backward direction is not implied.
	if c.Find(0) != nil {
		t.Fatal("cache invented a reverse route")
	}
}

func TestCacheShortestWins(t *testing.T) {
	c := NewPathCache(0, 8)
	c.Add(ids(0, 1, 2, 3))
	c.Add(ids(0, 5, 3))
	if got := c.Find(3); len(got) != 3 || got[1] != 5 {
		t.Fatalf("Find = %v, want the 2-hop path", got)
	}
}

func TestCacheRejectsLoopsAndDuplicates(t *testing.T) {
	c := NewPathCache(0, 8)
	c.Add(ids(0, 1, 0))
	if len(c.paths) != 0 {
		t.Fatal("looping path cached")
	}
	c.Add(ids(0, 1, 2))
	c.Add(ids(0, 1, 2))
	if len(c.paths) != 1 {
		t.Fatalf("duplicate path cached: %d", len(c.paths))
	}
	c.Add(ids(5))
	if len(c.paths) != 1 {
		t.Fatal("single-node path cached")
	}
}

func TestCacheCapacityFIFO(t *testing.T) {
	c := NewPathCache(0, 2)
	c.Add(ids(0, 1))
	c.Add(ids(0, 2))
	c.Add(ids(0, 3)) // evicts 0→1
	if c.Find(1) != nil {
		t.Fatal("oldest path survived eviction")
	}
	if c.Find(2) == nil || c.Find(3) == nil {
		t.Fatal("newer paths evicted")
	}
}

func TestCacheRemoveLink(t *testing.T) {
	c := NewPathCache(0, 8)
	c.Add(ids(0, 1, 2, 3))
	c.Add(ids(0, 4, 3))
	c.RemoveLink(1, 2)
	if c.Find(3) == nil {
		t.Fatal("alternate path lost")
	}
	if got := c.Find(3); len(got) != 3 || got[1] != 4 {
		t.Fatalf("Find after RemoveLink = %v", got)
	}
	// The usable prefix of the truncated path survives: 0→1.
	if c.Find(1) == nil {
		t.Fatal("usable prefix discarded")
	}
	if c.Find(2) != nil {
		t.Fatal("broken-link suffix still reachable")
	}
}

func TestCacheRemoveLinkDirectional(t *testing.T) {
	c := NewPathCache(0, 8)
	c.Add(ids(0, 1, 2))
	c.RemoveLink(2, 1) // reverse direction: unrelated
	if c.Find(2) == nil {
		t.Fatal("RemoveLink removed the wrong direction")
	}
}

func TestCacheFindNeverLoops(t *testing.T) {
	f := func(raw []uint8) bool {
		c := NewPathCache(0, 16)
		path := []pkt.NodeID{0}
		for _, r := range raw {
			path = append(path, pkt.NodeID(r%16))
		}
		c.Add(path)
		got := c.Find(pkt.NodeID(7))
		if got == nil {
			return true
		}
		seen := map[pkt.NodeID]bool{}
		for _, n := range got {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return got[0] == 0 && got[len(got)-1] == 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
