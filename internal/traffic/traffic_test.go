package traffic_test

import (
	"context"
	"testing"

	"adhocsim/internal/mobility"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/flood"
	"adhocsim/internal/sim"
	"adhocsim/internal/traffic"
)

func world(t *testing.T, n int, spacing float64) *network.World {
	t.Helper()
	w, err := network.NewWorld(network.Config{
		Tracks:   mobility.Chain(n, spacing),
		Radio:    phy.DefaultParams(),
		Protocol: flood.Factory(flood.Config{}),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConnectionValidate(t *testing.T) {
	good := traffic.Connection{Src: 0, Dst: 1, Rate: 4, PayloadBytes: 64}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := []traffic.Connection{
		{Src: 1, Dst: 1, Rate: 4, PayloadBytes: 64},
		{Src: 0, Dst: 5, Rate: 4, PayloadBytes: 64},
		{Src: -1, Dst: 1, Rate: 4, PayloadBytes: 64},
		{Src: 0, Dst: 1, Rate: 0, PayloadBytes: 64},
		{Src: 0, Dst: 1, Rate: 4, PayloadBytes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(2); err == nil {
			t.Fatalf("bad connection %d accepted", i)
		}
	}
	late := traffic.Connection{Src: 0, Dst: 1, Rate: 4, PayloadBytes: 64, Start: sim.At(10)}
	if err := late.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestCBRPacing(t *testing.T) {
	w := world(t, 2, 100)
	conn := traffic.Connection{Src: 0, Dst: 1, Rate: 4, PayloadBytes: 64, Start: sim.At(1)}
	if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(100)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	// Run just past t=11 so the packet sent exactly at t=11 also lands.
	if err := w.Run(context.Background(), sim.At(11.1)); err != nil {
		t.Fatal(err)
	}
	// 4 pkt/s from t=1 to t=11: first at 1.0, then every 250 ms → 41.
	res := w.Collector.Finalize()
	if res.DataSent != 41 {
		t.Fatalf("sent %d packets, want 41", res.DataSent)
	}
	if res.DataDelivered != 41 {
		t.Fatalf("delivered %d/41 over one hop", res.DataDelivered)
	}
}

// TestStopTimeHonored: a source stops at the horizon, to the packet.
func TestStopTimeHonored(t *testing.T) {
	w := world(t, 2, 100)
	conn := traffic.Connection{Src: 0, Dst: 1, Rate: 10, PayloadBytes: 64, Start: sim.At(1)}
	if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(3)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.Run(context.Background(), sim.At(20)); err != nil {
		t.Fatal(err)
	}
	sent := w.Collector.Finalize().DataSent
	if sent < 19 || sent > 21 {
		t.Fatalf("sent %d packets in a 2 s window at 10 pkt/s", sent)
	}
}

func TestSinkDeduplicates(t *testing.T) {
	w := world(t, 2, 100)
	sink := traffic.NewSink(w)
	w.Node(1).SetSink(sink.Accept)
	p := pkt.DataPacket(0, 1, 7, 64, 0)
	sink.Accept(p, 0)
	sink.Accept(p.Clone(), 0) // same (src,seq): duplicate
	q := pkt.DataPacket(0, 1, 8, 64, 0)
	sink.Accept(q, 0)
	res := w.Collector.Finalize()
	if res.DataDelivered != 2 || res.DupDelivered != 1 {
		t.Fatalf("delivered/dup = %d/%d", res.DataDelivered, res.DupDelivered)
	}
}

func TestInstallRejectsBadConnection(t *testing.T) {
	w := world(t, 2, 100)
	_, err := traffic.Install(w, []traffic.Connection{{Src: 0, Dst: 0, Rate: 1, PayloadBytes: 1}}, sim.At(10))
	if err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestHorizonStopsSources(t *testing.T) {
	w := world(t, 2, 100)
	conn := traffic.Connection{Src: 0, Dst: 1, Rate: 100, PayloadBytes: 64, Start: sim.At(1)}
	if _, err := traffic.Install(w, []traffic.Connection{conn}, sim.At(2)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.Run(context.Background(), sim.At(10)); err != nil {
		t.Fatal(err)
	}
	sent := w.Collector.Finalize().DataSent
	if sent > 105 {
		t.Fatalf("source kept sending past the horizon: %d", sent)
	}
}
