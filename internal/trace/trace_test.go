package trace_test

import (
	"context"
	"strings"
	"testing"

	"adhocsim/internal/mobility"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing/flood"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/trace"
)

func mkEvent(op trace.Op) trace.Event {
	p := pkt.DataPacket(1, 2, 7, 64, sim.At(1))
	return trace.Event{Op: op, At: sim.At(2), Node: 3, Pkt: p, Peer: 4}
}

func TestFormatSend(t *testing.T) {
	line := trace.Format(mkEvent(trace.OpSend))
	for _, want := range []string{"s 2.000000000", "_3_", "data", "[n1 -> n2]", "via n4", "ttl 32"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

func TestFormatDrop(t *testing.T) {
	ev := mkEvent(trace.OpDrop)
	ev.Reason = stats.DropNoRoute
	line := trace.Format(ev)
	if !strings.Contains(line, "D 2.000000000") || !strings.Contains(line, "no-route") {
		t.Fatalf("drop line %q", line)
	}
}

func TestFormatDeliverIncludesDelay(t *testing.T) {
	line := trace.Format(mkEvent(trace.OpDeliver))
	if !strings.Contains(line, "delay 1.000000") {
		t.Fatalf("deliver line %q lacks delay", line)
	}
}

func TestFormatSourceRoute(t *testing.T) {
	ev := mkEvent(trace.OpSend)
	ev.Pkt.SrcRoute = []pkt.NodeID{1, 3, 2}
	line := trace.Format(ev)
	if !strings.Contains(line, "sr=1,3,2") {
		t.Fatalf("line %q lacks source route", line)
	}
}

func TestFormatRoutingLabel(t *testing.T) {
	ev := mkEvent(trace.OpRecv)
	ev.Pkt = pkt.RoutingPacket("RREQ", 1, pkt.Broadcast, 5, 24, 0)
	line := trace.Format(ev)
	if !strings.Contains(line, "RREQ") || !strings.Contains(line, "bcast") {
		t.Fatalf("routing line %q", line)
	}
}

func TestWriterWritesLines(t *testing.T) {
	var sb strings.Builder
	w := trace.NewWriter(&sb)
	w.Trace(mkEvent(trace.OpSend))
	ev := mkEvent(trace.OpDrop)
	ev.Reason = stats.DropTTL
	w.Trace(ev)
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "s ") || !strings.Contains(lines[1], "ttl-expired") {
		t.Fatalf("output %q", sb.String())
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

// TestEndToEndTracing wires a tracer into a world and checks events flow.
func TestEndToEndTracing(t *testing.T) {
	var sb strings.Builder
	wr := trace.NewWriter(&sb)
	w, err := network.NewWorld(network.Config{
		Tracks:   mobility.Chain(3, 200),
		Radio:    phy.DefaultParams(),
		Protocol: flood.Factory(flood.Config{}),
		Seed:     1,
		Tracer:   wr,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Node(2).SetSink(func(*pkt.Packet, pkt.NodeID) {})
	w.Start()
	w.Eng.Schedule(sim.At(1), func() {
		w.Node(0).Originate(pkt.DataPacket(0, 2, 0, 64, sim.At(1)))
	})
	if err := w.Run(context.Background(), sim.At(3)); err != nil {
		t.Fatal(err)
	}
	if wr.Err() != nil {
		t.Fatal(wr.Err())
	}
	out := sb.String()
	ops := map[byte]int{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		ops[line[0]]++
	}
	if ops['s'] == 0 || ops['r'] == 0 || ops['d'] != 1 {
		t.Fatalf("lines by op = %v, want sends, receives and one delivery:\n%s", ops, out)
	}
	if !strings.Contains(out, "s 1.000000000 _0_") {
		t.Fatalf("missing origination line:\n%s", out)
	}
}
