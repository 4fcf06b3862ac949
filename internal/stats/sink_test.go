package stats

import (
	"math"
	"testing"

	"adhocsim/internal/metrics"
)

func TestWelfordSinkPerKindCells(t *testing.T) {
	s := NewWelfordSink()
	s.Record(metrics.Sample{Kind: metrics.Delay, Value: 0.010})
	s.Record(metrics.Sample{Kind: metrics.Delay, Value: 0.030})
	s.Record(metrics.Sample{Kind: metrics.Hops, Value: 3})
	if n := s.Cell(metrics.Delay).Summary().N; n != 2 {
		t.Fatalf("delay cell N = %d", n)
	}
	if m := s.Cell(metrics.Delay).Mean(); math.Abs(m-0.020) > 1e-15 {
		t.Fatalf("delay mean = %v", m)
	}
	if n := s.Cell(metrics.RoutingTx).Summary().N; n != 0 {
		t.Fatalf("untouched cell N = %d", n)
	}
}
