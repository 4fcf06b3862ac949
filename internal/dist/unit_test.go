package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/campaign"
	"adhocsim/internal/metrics"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// ---- hub ----

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub()
	a := h.Subscribe("t1", 8)
	defer a.Cancel()
	b := h.Subscribe("t1", 8)
	defer b.Cancel()
	other := h.Subscribe("t2", 8)
	defer other.Cancel()

	h.Publish("t1", Event{Type: "x", Campaign: "c1"})
	for _, sub := range []*Sub{a, b} {
		select {
		case e := <-sub.C():
			if e.Type != "x" || e.Campaign != "c1" {
				t.Errorf("got %+v", e)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber did not receive")
		}
	}
	select {
	case e := <-other.C():
		t.Errorf("topic isolation broken: %+v", e)
	default:
	}
}

func TestHubCancelStopsDelivery(t *testing.T) {
	h := NewHub()
	s := h.Subscribe("t", 8)
	s.Cancel()
	s.Cancel() // idempotent
	h.Publish("t", Event{Type: "x"})
	select {
	case e := <-s.C():
		t.Errorf("cancelled subscriber received %+v", e)
	default:
	}
}

func TestHubDropsOldestWhenFull(t *testing.T) {
	h := NewHub()
	s := h.Subscribe("t", 4)
	defer s.Cancel()
	for i := 0; i < 10; i++ {
		h.Publish("t", Event{Type: "e", Label: fmt.Sprint(i)})
	}
	// The buffer holds the 4 newest events; the oldest were evicted.
	var got []string
	for len(s.C()) > 0 {
		got = append(got, (<-s.C()).Label)
	}
	if len(got) != 4 {
		t.Fatalf("buffered %d events, want 4: %v", len(got), got)
	}
	if got[len(got)-1] != "9" {
		t.Errorf("newest event lost: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("order not preserved: %v", got)
		}
	}
}

// ---- cache ----

func sampleResults(n int) stats.Results {
	var r stats.Results
	r.DataSent = uint64(n)
	r.DataDelivered = uint64(n - 1)
	r.PDR = float64(n-1) / float64(n)
	r.RoutingByType = map[string]uint64{"RREQ": uint64(n)}
	return r
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, _, found, err := s.Load("k1", metrics.Geometry{}); found || err != nil {
		t.Fatalf("empty store: found=%v err=%v", found, err)
	}
	want := sampleResults(10)
	if err := s.Save("k1", want, nil); err != nil {
		t.Fatal(err)
	}
	got, enc, found, err := s.Load("k1", metrics.Geometry{})
	if err != nil || !found || enc != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: got=%+v enc=%q found=%v err=%v", got, enc, found, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestFSStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if _, found, err := s.Get(key); found || err != nil {
		t.Fatalf("empty store: found=%v err=%v", found, err)
	}
	want := sampleResults(7)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}

	// A different handle on the same directory sees the entry (the
	// cross-coordinator-restart story).
	s2, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, found, err := s2.Get(key)
	if err != nil || !found || !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: got=%+v found=%v err=%v", got, found, err)
	}

	// Overwriting is fine (last write wins; contents are identical by
	// construction anyway).
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}

	// A corrupt entry degrades to a miss, never to a wrong result.
	if err := os.WriteFile(filepath.Join(dir, key[:2], key+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, found, err := s.Get(key); found || err != nil {
		t.Fatalf("corrupt entry: found=%v err=%v, want miss", found, err)
	}

	// An entry whose time series has another geometry than the unit's
	// window is a miss too: it would fail the cell's fold.
	g := metrics.WindowGeometry(sim.Seconds(10), metrics.DefaultSeriesBuckets)
	withSeries := want
	withSeries.Streams = &metrics.RunStreams{Series: metrics.NewWindow(sim.Seconds(10), metrics.DefaultSeriesBuckets).State()}
	if err := s.Put(key, withSeries); err != nil {
		t.Fatal(err)
	}
	if got, _, found, err := s.Load(key, g); err != nil || !found || !reflect.DeepEqual(got, withSeries) {
		t.Fatalf("entry of the unit's geometry: found=%v err=%v", found, err)
	}
	for _, other := range []metrics.Geometry{{Width: g.Width, Buckets: g.Buckets - 1}, {Width: g.Width / 2, Buckets: g.Buckets}} {
		if _, _, found, err := s.Load(key, other); found || err != nil {
			t.Fatalf("entry of geometry %+v loaded for %+v: found=%v err=%v, want miss", g, other, found, err)
		}
	}

	// Malformed keys are rejected, not mapped to surprising paths.
	if err := s.Put("x", want); err == nil {
		t.Error("Put accepted a malformed key")
	}
	if _, _, err := s.Get("x"); err == nil {
		t.Error("Get accepted a malformed key")
	}
}

// ---- lease table ----

func TestLeaseTable(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	lt := newLeaseTable(clock)

	l1 := lt.grant("c1", 0, 0, "w1", 10*time.Second)
	l2 := lt.grant("c1", 0, 1, "w2", 10*time.Second)
	l3 := lt.grant("c2", 1, 0, "w1", 30*time.Second)
	if lt.count("") != 3 || lt.count("c1") != 2 || lt.count("c2") != 1 {
		t.Fatalf("counts: all=%d c1=%d c2=%d", lt.count(""), lt.count("c1"), lt.count("c2"))
	}
	if l1.ID == l2.ID {
		t.Fatal("lease ids collide")
	}

	// Renewal pushes the deadline; unknown ids fail.
	now = now.Add(8 * time.Second)
	if !lt.renew(l1.ID, 10*time.Second) {
		t.Fatal("renewing a live lease failed")
	}
	if lt.renew("nope", 10*time.Second) {
		t.Fatal("renewed an unknown lease")
	}

	// At t+12s: l2 (deadline t+10) expired; l1 was renewed to t+18, l3
	// runs to t+30.
	now = now.Add(4 * time.Second)
	expired := lt.expire()
	if len(expired) != 1 || expired[0].ID != l2.ID {
		t.Fatalf("expired %v, want just %s", expired, l2.ID)
	}
	if lt.renew(l2.ID, time.Second) {
		t.Error("renewed an expired lease")
	}

	// Release returns the lease for re-queueing; double release is a no-op.
	got, ok := lt.release(l1.ID)
	if !ok || got.Cell != 0 || got.Rep != 0 {
		t.Fatalf("release: %+v ok=%v", got, ok)
	}
	if _, ok := lt.release(l1.ID); ok {
		t.Error("double release succeeded")
	}

	// dropCampaign clears the rest of c2.
	if n := lt.dropCampaign("c2"); n != 1 {
		t.Errorf("dropCampaign removed %d leases, want 1", n)
	}
	if lt.count("") != 0 {
		t.Errorf("%d leases left, want 0", lt.count(""))
	}
	_ = l3
}

// ---- retry/backoff ----

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := retry(context.Background(), time.Millisecond, 4*time.Millisecond, func() error {
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	calls := 0
	sentinel := errors.New("bad request")
	err := retry(context.Background(), time.Millisecond, time.Millisecond, func() error {
		calls++
		return permanent(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the unwrapped sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("retried a permanent error %d times", calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := retry(ctx, 5*time.Millisecond, 50*time.Millisecond, func() error {
		calls++
		return errors.New("always failing")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls == 0 {
		t.Fatal("f never ran")
	}
}

// BenchmarkCachedResubmission prices a resubmission served wholly from the
// result cache, the phase campaign_cluster's cached_units_per_s times, less
// its HTTP round trips. Each shape's store is filled once, by a campaign on
// GOMAXPROCS local executors; each iteration submits the spec to a fresh
// coordinator that has that store and its own journal directory, and the
// campaign settles inside the submission. small is 20 cells of 20 short
// replications. cluster-shape is campaign_cluster's spec — 12 nodes on
// 600×300 m for 20 s, 3 sources, 5 protocols × 4 pauses × 200
// replications, base seed 1 — whose fill runs its 4 000 units once (about
// 10 s on two cores); a sample of 40 resubmissions then takes about 3 s:
//
//	go test -run '^$' -bench 'CachedResubmission/cluster-shape' -benchtime 40x -count 10 ./internal/dist
func BenchmarkCachedResubmission(b *testing.B) {
	small := func() campaign.Spec {
		nodes, area, dur, sources := 8, 300.0, 5.0, 2
		return campaign.Spec{
			Name:    "cached-resubmission",
			Base:    campaign.ScenarioPatch{Nodes: &nodes, AreaW: &area, DurationS: &dur, Sources: &sources},
			Axes:    []campaign.AxisSpec{{Name: "pause", Values: []float64{0, 5, 10, 20}}},
			MaxReps: 20,
		}
	}
	cluster := func() campaign.Spec {
		nodes, w, h, dur, sources := 12, 600.0, 300.0, 20.0, 3
		return campaign.Spec{
			Name:     "campaign_cluster",
			Base:     campaign.ScenarioPatch{Nodes: &nodes, AreaW: &w, AreaH: &h, DurationS: &dur, Sources: &sources},
			Axes:     []campaign.AxisSpec{{Name: "pause", Values: []float64{0, 5, 10, 20}}},
			BaseSeed: 1,
			MaxReps:  200,
		}
	}
	for _, shape := range []struct {
		name string
		spec campaign.Spec
	}{{"small", small()}, {"cluster-shape", cluster()}} {
		var store *MemStore // filled on the shape's first run
		b.Run(shape.name, func(b *testing.B) { benchCachedResubmission(b, shape.spec, &store) })
	}
}

// benchCachedResubmission times b.N cache-served submissions of spec,
// filling *store by one computed campaign first if it is nil.
func benchCachedResubmission(b *testing.B, spec campaign.Spec, store **MemStore) {
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	fill := *store == nil
	if fill {
		*store = NewMemStore()
	}
	dir := b.TempDir()
	submit := func(local int) (*Server, *campaign.Campaign, string) {
		journals, err := os.MkdirTemp(dir, "journal-")
		if err != nil {
			b.Fatal(err)
		}
		s := NewServer(ServerOptions{LocalWorkers: local, JournalDir: journals, Cache: *store})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body)))
		var created createdResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
			b.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		return s, s.lookup(created.ID).c, journals
	}
	if fill {
		s, c, journals := submit(0)
		for !c.Closed() {
			time.Sleep(time.Millisecond)
		}
		s.Close()
		os.RemoveAll(journals)
		// One entry per unit, and one fold entry per cell.
		if plan := c.Plan(); (*store).Len() != plan.MaxRuns()+len(plan.Cells) {
			b.Fatalf("%d entries cached, want %d units and %d cells", (*store).Len(), plan.MaxRuns(), len(plan.Cells))
		}
	}

	var units int
	b.ResetTimer()
	for range b.N {
		s, c, journals := submit(-1)
		b.StopTimer()
		s.Close()
		os.RemoveAll(journals)
		units = c.Plan().MaxRuns()
		if snap := c.Snapshot(); snap.State != campaign.StateDone || snap.RunsFromCache != units {
			b.Fatalf("resubmission ended %s with %d of %d units from cache", snap.State, snap.RunsFromCache, units)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(units*b.N)/b.Elapsed().Seconds(), "units/s")
}
