package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

func deliver(c *Collector, created, now sim.Time, hops, optimal int) {
	p := pkt.DataPacket(0, 1, 0, 64, created)
	p.Hops = hops
	p.OptimalHops = optimal
	c.OnDataDelivered(p, now, false)
}

func TestPDRAndDelay(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	for i := 0; i < 10; i++ {
		c.OnDataOriginated(pkt.DataPacket(0, 1, uint32(i), 64, 0), 2)
	}
	deliver(c, 0, sim.At(0.1), 2, 2)
	deliver(c, 0, sim.At(0.3), 3, 2)
	c.Finish(sim.At(100))
	r := c.Finalize()
	if r.DataSent != 10 || r.DataDelivered != 2 {
		t.Fatalf("sent/delivered = %d/%d", r.DataSent, r.DataDelivered)
	}
	if math.Abs(r.PDR-0.2) > 1e-12 {
		t.Fatalf("PDR = %v", r.PDR)
	}
	if math.Abs(r.AvgDelay-0.2) > 1e-9 {
		t.Fatalf("AvgDelay = %v", r.AvgDelay)
	}
	if math.Abs(r.AvgHops-2.5) > 1e-9 {
		t.Fatalf("AvgHops = %v", r.AvgHops)
	}
	if r.HopExcess[0] != 1 || r.HopExcess[1] != 1 {
		t.Fatalf("HopExcess = %v", r.HopExcess)
	}
	if s := r.PathOptimalityShare(); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("PathOptimalityShare = %v", s)
	}
}

func TestThroughput(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	// 100 packets of 92 bytes over 10 s = 73.6 kbit/s.
	for i := 0; i < 100; i++ {
		c.OnDataOriginated(pkt.DataPacket(0, 1, uint32(i), 64, 0), 1)
		deliver(c, 0, sim.At(0.01), 1, 1)
	}
	c.Finish(sim.At(10))
	r := c.Finalize()
	want := 100.0 * 92 * 8 / 1000 / 10
	if math.Abs(r.ThroughputKbps-want) > 1e-9 {
		t.Fatalf("throughput = %v, want %v", r.ThroughputKbps, want)
	}
}

func TestNormalizedLoads(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	for i := 0; i < 4; i++ {
		c.OnDataOriginated(pkt.DataPacket(0, 1, uint32(i), 64, 0), 1)
		deliver(c, 0, sim.At(0.01), 1, 1)
	}
	for i := 0; i < 8; i++ {
		c.OnRoutingTx(pkt.RoutingPacket("RREQ", 0, pkt.Broadcast, 5, 24, 0))
	}
	c.OnRoutingTx(pkt.RoutingPacket("RREP", 1, 0, 5, 24, 0))
	c.OnMacControl(3, 100)
	c.Finish(sim.At(10))
	r := c.Finalize()
	if r.RoutingTxPackets != 9 {
		t.Fatalf("routing tx = %d", r.RoutingTxPackets)
	}
	if r.RoutingByType["RREQ"] != 8 || r.RoutingByType["RREP"] != 1 {
		t.Fatalf("by type = %v", r.RoutingByType)
	}
	if math.Abs(r.NormalizedRoutingLoad-9.0/4) > 1e-12 {
		t.Fatalf("NRL = %v", r.NormalizedRoutingLoad)
	}
	if math.Abs(r.NormalizedMacLoad-12.0/4) > 1e-12 {
		t.Fatalf("NML = %v", r.NormalizedMacLoad)
	}
	if r.RoutingTxBytes != 9*44 {
		t.Fatalf("routing bytes = %d", r.RoutingTxBytes)
	}
}

func TestDuplicatesNotDoubleCounted(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	c.OnDataOriginated(pkt.DataPacket(0, 1, 0, 64, 0), 1)
	p := pkt.DataPacket(0, 1, 0, 64, 0)
	c.OnDataDelivered(p, sim.At(1), false)
	c.OnDataDelivered(p, sim.At(2), true)
	c.Finish(sim.At(10))
	r := c.Finalize()
	if r.DataDelivered != 1 || r.DupDelivered != 1 {
		t.Fatalf("delivered/dup = %d/%d", r.DataDelivered, r.DupDelivered)
	}
	if r.PDR != 1 {
		t.Fatalf("PDR = %v", r.PDR)
	}
}

func TestDropCensus(t *testing.T) {
	c := NewCollector()
	c.OnDrop(pkt.DataPacket(0, 1, 0, 64, 0), DropNoRoute)
	c.OnDrop(pkt.DataPacket(0, 1, 1, 64, 0), DropNoRoute)
	c.OnDrop(pkt.DataPacket(0, 1, 2, 64, 0), DropTTL)
	r := c.Finalize()
	if r.Drops[DropNoRoute] != 2 || r.Drops[DropTTL] != 1 {
		t.Fatalf("drops = %v", r.Drops)
	}
}

func TestEmptyRunSafe(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	c.Finish(0)
	r := c.Finalize()
	if r.PDR != 0 || r.AvgDelay != 0 || r.ThroughputKbps != 0 || r.NormalizedRoutingLoad != 0 {
		t.Fatal("zero-division leak in empty run")
	}
	if r.PathOptimalityShare() != 0 {
		t.Fatal("PathOptimalityShare on empty run")
	}
}

func TestHopExcessClamped(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	deliver(c, 0, sim.At(1), 2, 5) // topology improved mid-flight
	r := c.Finalize()
	if r.HopExcess[0] != 1 {
		t.Fatalf("negative excess not clamped: %v", r.HopExcess)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	for i := 1; i <= 100; i++ {
		deliver(c, 0, sim.At(float64(i)*0.01), 1, 1)
	}
	c.Finish(sim.At(10))
	r := c.Finalize()
	if r.P50Delay < 0.4 || r.P50Delay > 0.6 {
		t.Fatalf("P50 = %v", r.P50Delay)
	}
	if r.P95Delay < 0.90 || r.P95Delay > 1.0 {
		t.Fatalf("P95 = %v", r.P95Delay)
	}
}

// Summarize computes a Summary over xs in one batch (an empty sample
// yields zeros): the oracle the tests hold Welford and ci95 to.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	s.CI95 = ci95(s.N, s.StdDev)
	return s
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, want)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty summarize")
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		s := Summarize(clean)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeResults(t *testing.T) {
	a := Results{
		PDR: 0.8, AvgDelay: 0.1, DataSent: 10, DataDelivered: 8,
		RoutingTxPackets: 100, NormalizedRoutingLoad: 12.5,
		RoutingByType: map[string]uint64{"RREQ": 60, "RREP": 40},
		HopExcess:     map[int]uint64{0: 5, 1: 3},
		Drops:         map[DropReason]uint64{DropNoRoute: 2},
		Duration:      sim.Seconds(100),
	}
	b := Results{
		PDR: 0.6, AvgDelay: 0.3, DataSent: 10, DataDelivered: 6,
		RoutingTxPackets: 200, NormalizedRoutingLoad: 33.3,
		RoutingByType: map[string]uint64{"RREQ": 150, "RERR": 50},
		HopExcess:     map[int]uint64{0: 6},
		Drops:         map[DropReason]uint64{DropTTL: 4},
		Duration:      sim.Seconds(100),
	}
	m := MergeResults([]Results{a, b})
	if math.Abs(m.PDR-0.7) > 1e-12 {
		t.Fatalf("merged PDR = %v", m.PDR)
	}
	if math.Abs(m.AvgDelay-0.2) > 1e-12 {
		t.Fatalf("merged delay = %v", m.AvgDelay)
	}
	if m.DataSent != 20 || m.RoutingTxPackets != 300 {
		t.Fatal("merged counters")
	}
	if m.RoutingByType["RREQ"] != 210 || m.RoutingByType["RERR"] != 50 {
		t.Fatalf("merged by-type = %v", m.RoutingByType)
	}
	if m.HopExcess[0] != 11 || m.Drops[DropNoRoute] != 2 || m.Drops[DropTTL] != 4 {
		t.Fatal("merged histograms")
	}
	if m.Duration != sim.Seconds(100) {
		t.Fatalf("merged duration = %v", m.Duration)
	}
	// Single-element merge is the identity, with maps of its own.
	one := MergeResults([]Results{a})
	if one.PDR != a.PDR || !reflect.DeepEqual(one.RoutingByType, a.RoutingByType) {
		t.Fatal("single merge")
	}
	one.RoutingByType["RREQ"]++
	one.HopExcess[0]++
	one.Drops[DropNoRoute]++
	if a.RoutingByType["RREQ"] != 60 || a.HopExcess[0] != 5 || a.Drops[DropNoRoute] != 2 {
		t.Fatal("a single merge shares its run's maps")
	}
	if z := MergeResults(nil); z.DataSent != 0 {
		t.Fatal("empty merge")
	}
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{10, 12, 14, 16, 18})
	// stddev ≈ 3.162, t(4) = 2.776 → CI ≈ 3.93.
	if s.CI95 < 3.8 || s.CI95 > 4.1 {
		t.Fatalf("CI95 = %v", s.CI95)
	}
	if Summarize([]float64{5}).CI95 != 0 {
		t.Fatal("single-sample CI must be 0")
	}
	// Large samples approach the normal quantile.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	s = Summarize(big)
	want := 1.96 * s.StdDev / 10
	if d := s.CI95 - want; d < -1e-9 || d > 1e-9 {
		t.Fatalf("large-sample CI = %v, want %v", s.CI95, want)
	}
}
