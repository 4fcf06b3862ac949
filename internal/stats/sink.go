package stats

import "adhocsim/internal/metrics"

// WelfordSink consumes the metric sample stream into one Welford cell per
// kind, making the existing mean/CI machinery a plain consumer of the
// stream. Memory is O(NumKinds), independent of run size.
type WelfordSink struct {
	cells [metrics.NumKinds]Welford
}

// NewWelfordSink creates an empty per-kind Welford sink.
func NewWelfordSink() *WelfordSink { return &WelfordSink{} }

// Record implements metrics.Sink.
func (s *WelfordSink) Record(sm metrics.Sample) { s.cells[sm.Kind].Add(sm.Value) }

// Cell returns the accumulator for a kind.
func (s *WelfordSink) Cell(k metrics.Kind) *Welford { return &s.cells[k] }
