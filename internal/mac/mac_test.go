package mac

import (
	"testing"

	"adhocsim/internal/geo"
	"adhocsim/internal/mobility"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// upper is a test UpperLayer recording events.
type upper struct {
	recv     []*pkt.Packet
	recvFrom []pkt.NodeID
	snoop    []*pkt.Packet
	sent     []*pkt.Packet
	failed   []*pkt.Packet
	failedTo []pkt.NodeID
	qfull    []*pkt.Packet
}

func (u *upper) MacRecv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	u.recv = append(u.recv, p)
	u.recvFrom = append(u.recvFrom, from)
}
func (u *upper) MacSnoop(p *pkt.Packet, from, to pkt.NodeID, _ float64) {
	u.snoop = append(u.snoop, p)
}
func (u *upper) MacSent(p *pkt.Packet, to pkt.NodeID) { u.sent = append(u.sent, p) }
func (u *upper) MacSendFailed(p *pkt.Packet, to pkt.NodeID) {
	u.failed = append(u.failed, p)
	u.failedTo = append(u.failedTo, to)
}
func (u *upper) MacQueueFull(p *pkt.Packet, to pkt.NodeID) { u.qfull = append(u.qfull, p) }

// rig builds n nodes at the given static positions, all with the same config.
type rig struct {
	eng    *sim.Engine
	ch     *phy.Channel
	macs   []*Mac
	uppers []*upper
}

func buildRig(positions []geo.Point, cfg Config) *rig {
	return buildRigParams(positions, cfg, phy.DefaultParams())
}

func buildRigParams(positions []geo.Point, cfg Config, params phy.RadioParams) *rig {
	eng := sim.NewEngine()
	ch := phy.NewChannel(eng, params)
	root := sim.NewRNG(99)
	r := &rig{eng: eng, ch: ch}
	tracks := make([]*mobility.Track, len(positions))
	for i, p := range positions {
		tracks[i] = mobility.Static(p)
	}
	ch.SetPositionTable(mobility.NewTable(tracks))
	for i := range positions {
		u := &upper{}
		radio := ch.AttachRadio(pkt.NodeID(i), nil, nil)
		m := New(eng, pkt.NodeID(i), radio, u, root.Fork(int64(i)), cfg)
		attachReceiver(ch, pkt.NodeID(i), m)
		r.macs = append(r.macs, m)
		r.uppers = append(r.uppers, u)
	}
	return r
}

// attachReceiver wires the MAC back into the already-attached radio.
func attachReceiver(ch *phy.Channel, id pkt.NodeID, m *Mac) {
	// Radios are created with a nil receiver in buildRig; phy exposes no
	// setter, so rig construction uses this helper via the test-only
	// SetReceiver hook.
	ch.Radio(id).SetReceiver(m)
}

func chainRig(n int, spacing float64, cfg Config) *rig {
	tracks := mobility.Chain(n, spacing)
	pos := make([]geo.Point, n)
	for i, tr := range tracks {
		pos[i] = tr.At(0)
	}
	return buildRig(pos, cfg)
}

func data(src, dst pkt.NodeID, size int) *pkt.Packet {
	return pkt.DataPacket(src, dst, 0, size, 0)
}

func TestUnicastDelivery(t *testing.T) {
	r := chainRig(2, 200, Config{})
	p := data(0, 1, 64)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, 1) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[1].recv) != 1 || r.uppers[1].recv[0] != p {
		t.Fatalf("receiver got %d packets", len(r.uppers[1].recv))
	}
	if r.uppers[1].recvFrom[0] != 0 {
		t.Fatal("wrong link-level sender")
	}
	if len(r.uppers[0].sent) != 1 {
		t.Fatalf("sender confirmations = %d, want 1", len(r.uppers[0].sent))
	}
	if len(r.uppers[0].failed) != 0 {
		t.Fatal("spurious failure")
	}
	// RTS/CTS/DATA/ACK exchange must have happened.
	if r.macs[0].Stats.RTSSent != 1 || r.macs[1].Stats.CTSSent != 1 || r.macs[1].Stats.AckSent != 1 {
		t.Fatalf("exchange stats: RTS=%d CTS=%d ACK=%d",
			r.macs[0].Stats.RTSSent, r.macs[1].Stats.CTSSent, r.macs[1].Stats.AckSent)
	}
}

func TestUnicastWithoutRTS(t *testing.T) {
	r := chainRig(2, 200, Config{RTSThreshold: 1 << 20})
	p := data(0, 1, 64)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, 1) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[1].recv) != 1 {
		t.Fatal("no delivery without RTS")
	}
	if r.macs[0].Stats.RTSSent != 0 {
		t.Fatal("RTS sent despite huge threshold")
	}
	if r.macs[1].Stats.AckSent != 1 {
		t.Fatal("no ACK")
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	r := chainRig(4, 200, Config{}) // 0 reaches 1 only at 200 m spacing... 0-1:200, 0-2:400
	p := pkt.RoutingPacket("RREQ", 0, pkt.Broadcast, 5, 24, 0)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, pkt.Broadcast) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[1].recv) != 1 {
		t.Fatal("neighbor missed broadcast")
	}
	if len(r.uppers[2].recv) != 0 || len(r.uppers[3].recv) != 0 {
		t.Fatal("broadcast travelled beyond radio range")
	}
	if len(r.uppers[0].sent) != 1 {
		t.Fatal("broadcast completion not confirmed")
	}
	if r.macs[0].Stats.RTSSent != 0 || r.macs[1].Stats.AckSent != 0 {
		t.Fatal("broadcast must not use RTS or ACK")
	}
}

func TestRetryExhaustionReportsFailure(t *testing.T) {
	// Receiver 600 m away: out of range entirely; RTS gets no CTS.
	r := chainRig(2, 600, Config{})
	p := data(0, 1, 64)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, 1) })
	if err := r.eng.Run(sim.At(5)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[0].failed) != 1 || r.uppers[0].failed[0] != p {
		t.Fatalf("failures = %d, want 1", len(r.uppers[0].failed))
	}
	if r.uppers[0].failedTo[0] != 1 {
		t.Fatal("failure reported wrong next hop")
	}
	if got := r.macs[0].Stats.RTSSent; got != ShortRetryLimit+1 {
		t.Fatalf("RTS attempts = %d, want %d", got, ShortRetryLimit+1)
	}
	if r.macs[0].Stats.RetryDrops != 1 {
		t.Fatal("retry drop not counted")
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	r := chainRig(2, 200, Config{})
	var pkts []*pkt.Packet
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < 10; i++ {
			p := data(0, 1, 64)
			p.Seq = uint32(i)
			pkts = append(pkts, p)
			r.macs[0].Send(p, 1)
		}
	})
	if err := r.eng.Run(sim.At(2)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[1].recv) != 10 {
		t.Fatalf("delivered %d/10", len(r.uppers[1].recv))
	}
	for i, p := range r.uppers[1].recv {
		if p.Seq != uint32(i) {
			t.Fatalf("out of order: pos %d has seq %d", i, p.Seq)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	r := chainRig(2, 600, Config{}) // unreachable peer keeps MAC busy
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < queueLimit+5; i++ {
			r.macs[0].Send(data(0, 1, 64), 1)
		}
	})
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if r.macs[0].Stats.QueueDrops != 4 {
		// 1 in flight + 50 queued = 51 accepted, 4 dropped.
		t.Fatalf("queue drops = %d, want 4", r.macs[0].Stats.QueueDrops)
	}
}

func TestRoutingPriorityInQueue(t *testing.T) {
	q := newIfQueue(10)
	d1 := outPkt{p: data(0, 1, 64), to: 1}
	d2 := outPkt{p: data(0, 1, 64), to: 1}
	r1 := outPkt{p: pkt.RoutingPacket("RREQ", 0, pkt.Broadcast, 5, 24, 0), to: pkt.Broadcast}
	r2 := outPkt{p: pkt.RoutingPacket("RREP", 0, 1, 5, 24, 0), to: 1}
	q.push(d1)
	q.push(d2)
	q.push(r1)
	q.push(r2)
	want := []outPkt{r1, r2, d1, d2}
	for i, w := range want {
		got, ok := q.pop()
		if !ok || got.p != w.p {
			t.Fatalf("pop %d: got %v, want %v", i, got.p, w.p)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestQueueRemoveDest(t *testing.T) {
	q := newIfQueue(10)
	a := outPkt{p: data(0, 1, 64), to: 1}
	b := outPkt{p: data(0, 2, 64), to: 2}
	c := outPkt{p: data(0, 1, 64), to: 1}
	rp := outPkt{p: pkt.RoutingPacket("RREP", 0, 1, 5, 24, 0), to: 2}
	q.push(a)
	q.push(b)
	q.push(c)
	q.push(rp)
	removed := q.removeDest(1)
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2", len(removed))
	}
	first, _ := q.pop()
	if first.p != rp.p {
		t.Fatal("routing priority lost after removeDest")
	}
	second, ok := q.pop()
	if !ok || second.p != b.p {
		t.Fatal("wrong survivor")
	}
}

func TestHiddenTerminalEventualDelivery(t *testing.T) {
	// With the default 550 m carrier-sense range, two nodes in range of a
	// common receiver always hear each other (550 > 2·250) — the classic
	// hidden-terminal geometry needs a reduced CS range. Nodes 0 and 2 are
	// 480 m apart (beyond the 300 m CS range here) and both 240 m from the
	// middle receiver: mutually hidden. RTS/CTS plus retries must still
	// deliver the bulk of both flows.
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(240, 0), geo.Pt(480, 0)}
	r := buildRigParams(pos, Config{}, phy.ParamsForRange(250, 300))
	const n = 20
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < n; i++ {
			p0 := data(0, 1, 64)
			p0.Seq = uint32(i)
			r.macs[0].Send(p0, 1)
			p2 := data(2, 1, 64)
			p2.Seq = uint32(i)
			r.macs[2].Send(p2, 1)
		}
	})
	if err := r.eng.Run(sim.At(10)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.uppers[1].recv); got < 2*n*9/10 {
		t.Fatalf("hidden-terminal delivery %d/%d too low", got, 2*n)
	}
}

func TestDuplicateFiltering(t *testing.T) {
	// Force an ACK loss scenario indirectly: run many packets between two
	// nodes with an interferer; dedup must ensure the upper layer never
	// sees the same packet twice.
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(400, 0)}
	r := buildRig(pos, Config{})
	const n = 30
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < n; i++ {
			p := data(0, 1, 512)
			p.Seq = uint32(i)
			r.macs[0].Send(p, 1)
			r.macs[2].Send(data(2, 1, 512), 1)
		}
	})
	if err := r.eng.Run(sim.At(20)); err != nil {
		t.Fatal(err)
	}
	seen := map[*pkt.Packet]int{}
	for _, p := range r.uppers[1].recv {
		seen[p]++
		if seen[p] > 1 {
			t.Fatal("duplicate delivery to upper layer")
		}
	}
}

func TestSnoopObservesThirdPartyData(t *testing.T) {
	// 0→1 unicast; node 2 within range of 0 must snoop the data frame.
	pos := []geo.Point{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(100, 100)}
	r := buildRig(pos, Config{})
	p := data(0, 1, 64)
	r.eng.ScheduleIn(0, func() { r.macs[0].Send(p, 1) })
	if err := r.eng.Run(sim.At(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.uppers[2].snoop) != 1 || r.uppers[2].snoop[0] != p {
		t.Fatalf("snooped %d frames, want 1", len(r.uppers[2].snoop))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// 5 nodes in mutual range all send bursts to node 0: CSMA/CA must
	// serialize without losing anything.
	pos := []geo.Point{
		geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(0, 100), geo.Pt(100, 100), geo.Pt(50, 50),
	}
	r := buildRig(pos, Config{})
	const per = 10
	r.eng.ScheduleIn(0, func() {
		for s := 1; s < 5; s++ {
			for i := 0; i < per; i++ {
				r.macs[s].Send(data(pkt.NodeID(s), 0, 64), 0)
			}
		}
	})
	if err := r.eng.Run(sim.At(10)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.uppers[0].recv); got != 4*per {
		t.Fatalf("delivered %d/%d under contention", got, 4*per)
	}
}

func TestFlushDest(t *testing.T) {
	r := chainRig(2, 600, Config{}) // peer unreachable; packets pile up
	r.eng.ScheduleIn(0, func() {
		for i := 0; i < 5; i++ {
			r.macs[0].Send(data(0, 1, 64), 1)
		}
	})
	r.eng.ScheduleIn(sim.Millisecond, func() { r.macs[0].FlushDest(1) })
	if err := r.eng.Run(sim.At(3)); err != nil {
		t.Fatal(err)
	}
	// 4 flushed from the queue + 1 in-flight eventually fails = 5.
	if got := len(r.uppers[0].failed); got != 5 {
		t.Fatalf("failures after flush = %d, want 5", got)
	}
}

func TestTxTimeMath(t *testing.T) {
	// 64-byte frame at 2 Mbit/s: 192 µs PLCP + 256 µs payload.
	if got := TxTime(64); got != (192+256)*sim.Microsecond {
		t.Fatalf("TxTime(64) = %v", got)
	}
	f := &Frame{Kind: FrameData, Pkt: data(0, 1, 64)}
	if FrameBytes(f) != 64+8+20+DataHdrBytes {
		t.Fatalf("FrameBytes = %d", FrameBytes(f))
	}
	if FrameBytes(&Frame{Kind: FrameRTS}) != RTSBytes {
		t.Fatal("RTS bytes")
	}
	if FrameKind(9).String() == "" || FrameRTS.String() != "RTS" {
		t.Fatal("FrameKind strings")
	}
}
