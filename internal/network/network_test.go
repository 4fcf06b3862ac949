package network_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/cbrp"
	"adhocsim/internal/routing/flood"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := network.NewWorld(network.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := network.NewWorld(network.Config{Tracks: mobility.Chain(2, 100)}); err == nil {
		t.Fatal("nil protocol factory accepted")
	}
}

func TestWorldWiring(t *testing.T) {
	tracks := mobility.Chain(3, 200)
	w, err := network.NewWorld(network.Config{
		Tracks:   tracks,
		Radio:    phy.DefaultParams(),
		Protocol: flood.Factory(flood.Config{}),
		Seed:     1,
		Oracle:   topo.NewOracle(tracks, 250),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(w.Nodes))
	}
	for i, n := range w.Nodes {
		if n.ID() != pkt.NodeID(i) {
			t.Fatalf("node %d has id %v", i, n.ID())
		}
		if n.NumNodes() != 3 {
			t.Fatal("NumNodes")
		}
	}
	var got []*pkt.Packet
	w.Node(2).SetSink(func(p *pkt.Packet, from pkt.NodeID) { got = append(got, p) })
	w.Start()
	p := pkt.DataPacket(0, 2, 0, 64, sim.At(1))
	w.Eng.Schedule(sim.At(1), func() { w.Node(0).Originate(p) })
	if err := w.Run(context.Background(), sim.At(5)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink received %d", len(got))
	}
	// Oracle annotated the optimal hop count (2-hop chain).
	if got[0].OptimalHops != 2 {
		t.Fatalf("OptimalHops = %d, want 2", got[0].OptimalHops)
	}
	res := w.Collector.Finalize()
	if res.DataSent != 1 {
		t.Fatalf("DataSent = %d", res.DataSent)
	}
	// Flooding a 3-node chain transmits data packets on several hops.
	if res.DataTxPackets < 2 {
		t.Fatalf("DataTxPackets = %d", res.DataTxPackets)
	}
}

func TestMacControlAggregated(t *testing.T) {
	// Unicast traffic produces CTS/ACK counters which Run must fold into
	// the collector. Use a protocol that unicasts: a trivial inline one.
	tracks := mobility.Chain(2, 150)
	w, err := network.NewWorld(network.Config{
		Tracks:   tracks,
		Radio:    phy.DefaultParams(),
		Protocol: func(pkt.NodeID) network.Protocol { return &direct{} },
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Node(1).SetSink(func(p *pkt.Packet, from pkt.NodeID) {
		w.Collector.OnDataDelivered(p, w.Eng.Now(), false)
	})
	w.Start()
	w.Eng.Schedule(sim.At(1), func() {
		w.Node(0).Originate(pkt.DataPacket(0, 1, 0, 64, sim.At(1)))
	})
	if err := w.Run(context.Background(), sim.At(3)); err != nil {
		t.Fatal(err)
	}
	res := w.Collector.Finalize()
	if res.MacCtlFrames == 0 {
		t.Fatal("MAC control frames not aggregated")
	}
	if res.DataDelivered != 1 {
		t.Fatalf("delivered = %d", res.DataDelivered)
	}
}

// TestPhasedRunMatchesOneRun: a world run in phases measures the whole run,
// not its last phase, and counts each MAC control frame once.
func TestPhasedRunMatchesOneRun(t *testing.T) {
	run := func(phases ...float64) stats.Results {
		w, err := network.NewWorld(network.Config{
			Tracks:   mobility.Chain(2, 150),
			Radio:    phy.DefaultParams(),
			Protocol: func(pkt.NodeID) network.Protocol { return &direct{} },
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Node(1).SetSink(func(p *pkt.Packet, from pkt.NodeID) {
			w.Collector.OnDataDelivered(p, w.Eng.Now(), false)
		})
		w.Start()
		for i := 1; i < 9; i++ {
			at := sim.At(float64(i))
			w.Eng.Schedule(at, func() { w.Node(0).Originate(pkt.DataPacket(0, 1, uint32(i), 64, at)) })
		}
		for _, end := range phases {
			if err := w.Run(context.Background(), sim.At(end)); err != nil {
				t.Fatal(err)
			}
		}
		return w.Collector.Finalize()
	}
	one, phased := run(9), run(3, 6, 9)
	if one.MacCtlFrames == 0 || one.DataDelivered != 8 {
		t.Fatalf("degenerate run: %+v", one)
	}
	if !reflect.DeepEqual(one, phased) {
		t.Fatalf("phased run differs from one run:\n one    %+v\n phased %+v", one, phased)
	}
}

// direct is a minimal protocol for wiring tests: unicast straight to the
// destination (valid only for 1-hop topologies).
type direct struct{ env network.Env }

func (d *direct) Start(env network.Env)  { d.env = env }
func (d *direct) SendData(p *pkt.Packet) { d.env.SendMac(p, p.Dst) }
func (d *direct) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	p.Hops++
	if p.Dst == d.env.ID() {
		d.env.Deliver(p, from)
	}
}
func (d *direct) Snoop(*pkt.Packet, pkt.NodeID, pkt.NodeID, float64) {}
func (d *direct) MacSent(*pkt.Packet, pkt.NodeID)                    {}
func (d *direct) MacFailed(p *pkt.Packet, _ pkt.NodeID) {
	d.env.Drop(p, stats.DropRetries)
}

// TestRestingSceneIndexesOnce: the channel's spatial index is rebuilt only
// once something has moved. The paper's "no motion" endpoint (pause =
// horizon) carries a moving segment that starts at the horizon, so its speed
// bound is 20 m/s — it must still index once, like a static grid; a scene
// that pauses 50 s indexes once until then and periodically afterwards.
func TestRestingSceneIndexesOnce(t *testing.T) {
	const horizon = 200 * sim.Second
	area := geo.Rect{W: 1500, H: 300}
	waypoint := func(pause sim.Duration) mobility.Model {
		return mobility.RandomWaypoint{Area: area, MinSpeed: 1, MaxSpeed: 20, Pause: pause}
	}
	for _, tc := range []struct {
		name  string
		model mobility.Model
		rest  sim.Time // the scene first moves here
	}{
		{"pause=horizon", waypoint(horizon), sim.At(200)},
		{"static-grid", mobility.StaticGrid{Area: area, Jitter: 30}, sim.Never},
		{"pause=50", waypoint(50 * sim.Second), sim.At(50)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracks, err := tc.model.Generate(20, horizon, sim.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			if got := mobility.NewTable(tracks).RestUntil(); got != tc.rest {
				t.Fatalf("RestUntil = %v, want %v", got, tc.rest)
			}
			w, err := network.NewWorld(network.Config{
				Tracks:   tracks,
				Radio:    phy.DefaultParams(),
				Protocol: flood.Factory(flood.Config{}),
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			w.Start()
			for s := 1.0; s < 200; s += 7 {
				at := sim.At(s)
				w.Eng.Schedule(at, func() { w.Node(0).Originate(pkt.DataPacket(0, 19, 0, 64, at)) })
			}
			for _, until := range []sim.Time{sim.At(49.9), sim.At(200)} {
				if err := w.Run(context.Background(), until); err != nil {
					t.Fatal(err)
				}
				n := w.Channel.Reindexes
				// Nothing transmits at t=200 exactly, so the pause = horizon
				// scene is at rest for every transmission of its run.
				if until <= tc.rest && n != 1 {
					t.Fatalf("%d reindexes by t=%v in a scene at rest until %v, want 1", n, until, tc.rest)
				}
				if until > tc.rest && n < 10 {
					t.Fatalf("%d reindexes by t=%v in a scene moving since %v: index frozen", n, until, tc.rest)
				}
			}
			if w.Channel.Transmissions < 100 {
				t.Fatalf("degenerate scene: %d transmissions", w.Channel.Transmissions)
			}
		})
	}
}

// buildCostPerNode builds a 2 000-node CBRP world, started when start is
// set, and returns the bytes and heap objects that took per node.
func buildCostPerNode(t *testing.T, start bool) (bytes, objects float64) {
	t.Helper()
	const nodes = 2000
	model := mobility.RandomWaypoint{Area: geo.Rect{W: 15000, H: 1500}, MinSpeed: 1, MaxSpeed: 20}
	tracks, err := model.Generate(nodes, 30*sim.Second, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := network.NewWorld(network.Config{
		Tracks:   tracks,
		Radio:    phy.DefaultParams(),
		Protocol: cbrp.Factory(cbrp.Config{}),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		w.Start()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return float64(after.TotalAlloc-before.TotalAlloc) / nodes, float64(after.Mallocs-before.Mallocs) / nodes
}

// TestWorldBuildMemoryPerNode bounds the bytes NewWorld allocates per node.
// A node forks three random streams; seeded eagerly, each held math/rand's
// 4.9 KB register, and NewWorld took 17.8 KB a node. Lazily seeded, a stream
// is 80 B until its 274th draw. The budget is ~3× the lazily seeded figure,
// so an eagerly seeded stream cannot come back silently.
func TestWorldBuildMemoryPerNode(t *testing.T) {
	perNode, _ := buildCostPerNode(t, false)
	t.Logf("NewWorld: %.0f B per node", perNode)
	const budget = 5 << 10 // measured 1.7 KB
	if perNode > budget {
		t.Fatalf("NewWorld allocated %.0f B per node, budget %d", perNode, budget)
	}
}

// TestWorldBuildObjectsPerNode bounds the heap objects NewWorld and Start
// make per node of a CBRP world: its radio, MAC, agent, random streams,
// timers and tickers. A timer is one object, with no wrapper closure
// beside it, and the MAC's duplicate filter is one map. Measured 33.06
// objects per node; 38.06 with a closure per timer and a second map.
func TestWorldBuildObjectsPerNode(t *testing.T) {
	_, perNode := buildCostPerNode(t, true)
	t.Logf("NewWorld + Start: %.2f objects per node", perNode)
	const budget = 35
	if perNode > budget {
		t.Fatalf("NewWorld + Start made %.2f objects per node, budget %d", perNode, budget)
	}
}
