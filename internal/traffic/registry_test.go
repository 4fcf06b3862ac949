package traffic_test

import (
	"context"
	"reflect"
	"testing"

	"adhocsim/internal/sim"
	"adhocsim/internal/traffic"
)

func testTrafficEnv() traffic.Env {
	return traffic.Env{
		Nodes:        20,
		Sources:      6,
		Rate:         4,
		PayloadBytes: 64,
		StartMin:     5 * sim.Second,
		StartMax:     15 * sim.Second,
		Duration:     60 * sim.Second,
		Seed:         42,
	}
}

// TestGeneratorDeterminism: every registered traffic model, built twice
// through fresh registries/RNGs, must emit reflect.DeepEqual connection
// lists — the cross-process determinism contract.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range traffic.Models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen := func() []traffic.Connection {
				g, err := traffic.New(name, nil)
				if err != nil {
					t.Fatal(err)
				}
				conns, err := g.Connections(testTrafficEnv(), sim.NewRNG(7).ForkNamed("traffic"))
				if err != nil {
					t.Fatal(err)
				}
				return conns
			}
			a, b := gen(), gen()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different connections:\n%+v\nvs\n%+v", a, b)
			}
			if len(a) != 6 {
				t.Fatalf("connections = %d", len(a))
			}
			for _, c := range a {
				if err := c.Validate(20); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDefaultModelIsCBR: the empty name and "cbr" must produce identical
// connections, with zero-valued process fields (the pre-registry layout).
func TestDefaultModelIsCBR(t *testing.T) {
	gen := func(name string) []traffic.Connection {
		g, err := traffic.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns, err := g.Connections(testTrafficEnv(), sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		return conns
	}
	a, b := gen(""), gen(traffic.ProcessCBR)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("default model differs from cbr")
	}
	for _, c := range a {
		if c.Process != "" || c.Seed != 0 || c.OnMean != 0 {
			t.Fatalf("cbr connection carries process state: %+v", c)
		}
	}
}

// TestStochasticModelsShareThePairLayout: poisson/expoo reuse the cbrgen
// pair drawing, so the (src,dst,start) layout is identical across models —
// only the emission process differs. That keeps traffic-model sweeps
// apples-to-apples.
func TestStochasticModelsShareThePairLayout(t *testing.T) {
	layout := func(name string) [][2]int32 {
		g, err := traffic.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns, err := g.Connections(testTrafficEnv(), sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		out := make([][2]int32, len(conns))
		for i, c := range conns {
			out[i] = [2]int32{int32(c.Src), int32(c.Dst)}
		}
		return out
	}
	base := layout("cbr")
	for _, name := range []string{"poisson", "expoo"} {
		if got := layout(name); !reflect.DeepEqual(got, base) {
			t.Fatalf("%s pair layout diverges: %v vs %v", name, got, base)
		}
	}
}

// TestExpOnOffSeedsDistinct: per-connection process seeds must differ (a
// shared seed would synchronize every burst).
func TestExpOnOffSeedsDistinct(t *testing.T) {
	g, err := traffic.New("expoo", map[string]float64{"on_s": 0.5, "off_s": 2})
	if err != nil {
		t.Fatal(err)
	}
	conns, err := g.Connections(testTrafficEnv(), sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[int64]bool)
	for _, c := range conns {
		if c.Process != traffic.ProcessExpOnOff || c.OnMean != 0.5 || c.OffMean != 2 {
			t.Fatalf("bad expoo connection: %+v", c)
		}
		if seeds[c.Seed] {
			t.Fatalf("duplicate process seed %d", c.Seed)
		}
		seeds[c.Seed] = true
	}
}

func TestTrafficRegistryErrors(t *testing.T) {
	if _, err := traffic.New("warp", nil); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := traffic.New("expoo", map[string]float64{"onn_s": 1}); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
	if _, err := traffic.New("expoo", map[string]float64{"on_s": 0}); err == nil {
		t.Fatal("zero on_s accepted")
	}
}

// TestPoissonSourceEmits runs a Poisson source against a 2-node world and
// checks the emitted count is near the configured mean rate, and that the
// same connection seed reproduces the exact schedule.
func TestPoissonSourceEmits(t *testing.T) {
	run := func() uint64 {
		w := world(t, 2, 100)
		conn := traffic.Connection{
			Src: 0, Dst: 1, Rate: 10, PayloadBytes: 64, Start: sim.At(1),
			Process: traffic.ProcessPoisson, Seed: 77,
		}
		if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(101)); err != nil {
			t.Fatal(err)
		}
		w.Start()
		if err := w.Run(context.Background(), sim.At(101)); err != nil {
			t.Fatal(err)
		}
		return w.Collector.Finalize().DataSent
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different poisson schedule: %d vs %d", a, b)
	}
	// 10 pkt/s over ~100 s → expect ~1000; Poisson σ≈32, allow ±5σ.
	if a < 840 || a > 1160 {
		t.Fatalf("poisson emitted %d packets, want ≈1000", a)
	}
}

// TestExpOnOffSourceDutyCycle: with equal on/off means the expoo source
// should emit roughly half the CBR packet count.
func TestExpOnOffSourceDutyCycle(t *testing.T) {
	w := world(t, 2, 100)
	conn := traffic.Connection{
		Src: 0, Dst: 1, Rate: 20, PayloadBytes: 64, Start: sim.At(1),
		Process: traffic.ProcessExpOnOff, OnMean: 1, OffMean: 1, Seed: 13,
	}
	if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(201)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.Run(context.Background(), sim.At(201)); err != nil {
		t.Fatal(err)
	}
	sent := float64(w.Collector.Finalize().DataSent)
	// Full-rate would be ~4000 packets over 200 s; 50% duty cycle → ~2000.
	if sent < 1200 || sent > 2800 {
		t.Fatalf("expoo emitted %.0f packets, want ≈2000 (50%% duty cycle)", sent)
	}
}

// TestStochasticSourcesHonorStopAndHorizon mirrors the CBR stop tests for
// the stochastic processes: they stop at the horizon.
func TestStochasticSourcesHonorStopAndHorizon(t *testing.T) {
	for _, conn := range []traffic.Connection{
		{Src: 0, Dst: 1, Rate: 50, PayloadBytes: 64, Start: sim.At(1),
			Process: traffic.ProcessPoisson, Seed: 5},
		{Src: 0, Dst: 1, Rate: 50, PayloadBytes: 64, Start: sim.At(1),
			Process: traffic.ProcessExpOnOff, OnMean: 0.5, OffMean: 0.1, Seed: 5},
	} {
		w := world(t, 2, 100)
		if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(3)); err != nil {
			t.Fatal(err)
		}
		w.Start()
		if err := w.Run(context.Background(), sim.At(50)); err != nil {
			t.Fatal(err)
		}
		// ≤ 2 s live window at ≤ 50 pkt/s, plus slack for burst pacing.
		if sent := w.Collector.Finalize().DataSent; sent > 130 {
			t.Fatalf("%s kept sending past the horizon: %d", conn.Process, sent)
		}
	}
}

func TestValidateRejectsBadProcess(t *testing.T) {
	bad := []traffic.Connection{
		{Src: 0, Dst: 1, Rate: 1, PayloadBytes: 1, Process: "vbr"},
		{Src: 0, Dst: 1, Rate: 1, PayloadBytes: 1, Process: traffic.ProcessExpOnOff},
		{Src: 0, Dst: 1, Rate: 1, PayloadBytes: 1, Process: traffic.ProcessExpOnOff,
			OnMean: 1, OffMean: -2},
	}
	for i, c := range bad {
		if err := c.Validate(2); err == nil {
			t.Fatalf("bad process connection %d accepted", i)
		}
	}
	ok := traffic.Connection{Src: 0, Dst: 1, Rate: 1, PayloadBytes: 1,
		Process: traffic.ProcessPoisson, Seed: 3}
	if err := ok.Validate(2); err != nil {
		t.Fatal(err)
	}
}
