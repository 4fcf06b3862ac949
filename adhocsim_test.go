package adhocsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"adhocsim"
)

func smallSpec() adhocsim.Spec {
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 15
	spec.Area = adhocsim.Rect{W: 700, H: 300}
	spec.Duration = 40 * adhocsim.Second
	spec.Sources = 4
	return spec
}

func TestFacadeRun(t *testing.T) {
	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: smallSpec(), Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 || res.PDR <= 0 {
		t.Fatalf("degenerate results: %+v", res)
	}
}

func TestFacadeProtocolLists(t *testing.T) {
	study := adhocsim.StudyProtocols()
	if len(study) != 5 {
		t.Fatalf("study protocols = %v", study)
	}
	all := adhocsim.AllProtocols()
	if len(all) != 6 {
		t.Fatalf("all protocols = %v", all)
	}
	for _, p := range all {
		if p == "" {
			t.Fatal("empty protocol name")
		}
	}
}

func TestFacadeCompare(t *testing.T) {
	opts := adhocsim.DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{adhocsim.DSR, adhocsim.DSDV}
	opts.Seeds = []int64{1}
	res, err := adhocsim.CompareContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("compare returned %d protocols", len(res))
	}
	for p, r := range res {
		if r.DataSent == 0 {
			t.Fatalf("%s sent nothing", p)
		}
	}
}

func TestFacadeSweepAndRender(t *testing.T) {
	opts := adhocsim.DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{adhocsim.AODV}
	opts.Seeds = []int64{1}
	sweep, err := adhocsim.Sweep(context.Background(), opts, adhocsim.PauseAxis([]float64{0, 40}))
	if err != nil {
		t.Fatal(err)
	}
	fig := adhocsim.Figure{ID: "t", Title: "test", Metric: adhocsim.MetricPDR, Sweep: sweep}
	txt := adhocsim.RenderFigure(fig)
	if !strings.Contains(txt, "AODV") || !strings.Contains(txt, "pause_s") {
		t.Fatalf("render missing columns:\n%s", txt)
	}
	csv := adhocsim.RenderFigureCSV(fig)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+2 { // header + 2 x-points × 1 protocol
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "pause_s,protocol,") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestFacadeSeconds(t *testing.T) {
	if adhocsim.Seconds(2) != 2*adhocsim.Second {
		t.Fatal("Seconds conversion")
	}
}

func TestFacadeErrorPropagation(t *testing.T) {
	bad := adhocsim.DefaultSpec()
	bad.Nodes = 1 // invalid
	if _, err := adhocsim.Run(adhocsim.RunConfig{Spec: bad, Protocol: adhocsim.DSR, Seed: 1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := adhocsim.Run(adhocsim.RunConfig{Spec: smallSpec(), Protocol: "NOPE", Seed: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := adhocsim.RunReplicatedContext(context.Background(), adhocsim.RunConfig{Spec: bad, Protocol: adhocsim.DSR}, []int64{1, 2}, 2); err == nil {
		t.Fatal("replicated run swallowed the error")
	}
	opts := adhocsim.DefaultOptions()
	opts.Base = bad
	if _, err := adhocsim.Sweep(context.Background(), opts, adhocsim.PauseAxis([]float64{0})); err == nil {
		t.Fatal("sweep swallowed the error")
	}
}

// stubFlood is a minimal routing protocol implemented purely against the
// facade's extension surface (no internal imports): TTL-scoped flooding
// with duplicate suppression. It exists to prove that a protocol registered
// from outside internal/core runs through Run and Compare like a built-in.
type stubFlood struct {
	env  adhocsim.Env
	seen map[uint64]bool
}

func (s *stubFlood) key(p *adhocsim.Packet) uint64 {
	return uint64(p.Src)<<32 | uint64(p.Seq)
}

func (s *stubFlood) Start(env adhocsim.Env) {
	s.env = env
	s.seen = make(map[uint64]bool)
}

func (s *stubFlood) SendData(p *adhocsim.Packet) {
	s.seen[s.key(p)] = true
	s.env.SendMac(p, adhocsim.Broadcast)
}

func (s *stubFlood) Recv(p *adhocsim.Packet, from adhocsim.NodeID, _ float64) {
	if s.seen[s.key(p)] {
		return
	}
	s.seen[s.key(p)] = true
	// A received broadcast is shared with its other receivers: change a copy.
	q := p.Clone()
	q.Hops++
	if q.Dst == s.env.ID() {
		s.env.Deliver(q, from)
		return
	}
	q.TTL--
	if q.Expired() {
		s.env.Drop(q, adhocsim.DropReason("stub-ttl"))
		return
	}
	s.env.SendMac(q, adhocsim.Broadcast)
}

func (s *stubFlood) Snoop(*adhocsim.Packet, adhocsim.NodeID, adhocsim.NodeID, float64) {}
func (s *stubFlood) MacSent(*adhocsim.Packet, adhocsim.NodeID)                         {}
func (s *stubFlood) MacFailed(*adhocsim.Packet, adhocsim.NodeID)                       {}

func registered(name string) bool {
	for _, p := range adhocsim.RegisteredProtocols() {
		if p == name {
			return true
		}
	}
	return false
}

func TestRegisterProtocolRoundTrip(t *testing.T) {
	const name = "STUBFLOOD"
	stubBuilder := func(adhocsim.BuildContext) (adhocsim.ProtocolFactory, error) {
		return func(adhocsim.NodeID) adhocsim.Protocol { return &stubFlood{} }, nil
	}
	// The registry is process-global and append-only, so under
	// `go test -count=N` the stub persists across iterations.
	if !registered(name) {
		if err := adhocsim.RegisterProtocol(name, stubBuilder); err != nil {
			t.Fatal(err)
		}
	}
	if err := adhocsim.RegisterProtocol(name, stubBuilder); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if !registered(name) {
		t.Fatalf("%s missing from RegisteredProtocols", name)
	}

	// The registered protocol runs through Run like a built-in…
	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: smallSpec(), Protocol: name, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 || res.DataDelivered == 0 {
		t.Fatalf("stub protocol moved no traffic: %+v", res)
	}

	// …and appears in CompareContext output next to the study protocols.
	opts := adhocsim.DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{adhocsim.DSR, name}
	opts.Seeds = []int64{1}
	cmp, err := adhocsim.CompareContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cmp[name]; !ok {
		t.Fatalf("Compare output missing %s: %v", name, cmp)
	}
	if cmp[name].DataSent == 0 {
		t.Fatalf("%s sent nothing in Compare", name)
	}
}

// TestFacadeTxRangeSweep sweeps an axis the v1 facade could not express.
func TestFacadeTxRangeSweep(t *testing.T) {
	opts := adhocsim.DefaultOptions()
	opts.Base = smallSpec()
	opts.Protocols = []string{adhocsim.DSR}
	opts.Seeds = []int64{1}
	sweep, err := adhocsim.Sweep(context.Background(), opts, adhocsim.TxRangeAxis([]float64{150, 250}))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.XLabel != "txrange_m" || len(sweep.Cells[adhocsim.DSR]) != 2 {
		t.Fatalf("sweep = %+v", sweep)
	}
	b, err := adhocsim.SweepJSON(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatalf("SweepJSON produced invalid JSON:\n%s", b)
	}
	fig := adhocsim.Figure{ID: "tx", Title: "PDR vs range", Metric: adhocsim.MetricPDR, Sweep: sweep}
	fb, err := adhocsim.FigureJSON(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fb), "txrange_m") {
		t.Fatalf("figure JSON missing axis label:\n%s", fb)
	}
}

func TestFacadeSweepCancellation(t *testing.T) {
	opts := adhocsim.DefaultOptions()
	opts.Protocols = []string{adhocsim.DSR}
	opts.Seeds = []int64{1, 2, 3}
	opts.Base.Duration = 600 * adhocsim.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := adhocsim.Sweep(ctx, opts, adhocsim.PauseAxis([]float64{0, 600}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancellationLeaksNothing: a run is one goroutine from NewWorld to
// Results, so cancelling it mid-flight must surface context.Canceled and
// leave no goroutine behind.
func TestRunCancellationLeaksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent cancellation run")
	}
	before := runtime.NumGoroutine()
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 80
	spec.Duration = 900 * adhocsim.Second
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	_, err := adhocsim.RunContext(ctx, adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.AODV, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The timer's own goroutine may still be returning from cancel.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestFacadeRunReplicatedDefaultSeeds(t *testing.T) {
	// Nil seed list must still run (single default seed).
	res, err := adhocsim.RunReplicatedContext(context.Background(), adhocsim.RunConfig{Spec: smallSpec(), Protocol: adhocsim.DSDV}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 {
		t.Fatal("no traffic with default seeds")
	}
}
