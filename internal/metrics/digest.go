package metrics

import (
	"fmt"
	"sort"
)

// SketchSink routes samples of selected kinds into per-kind quantile
// sketches. Kinds not selected are ignored at the cost of one array load.
type SketchSink struct {
	sketches [NumKinds]*Sketch
}

// NewSketchSink creates a sink sketching the given kinds with compression δ.
func NewSketchSink(compression float64, kinds ...Kind) *SketchSink {
	s := &SketchSink{}
	for _, k := range kinds {
		s.sketches[k] = NewSketch(compression)
	}
	return s
}

// Record implements Sink.
func (s *SketchSink) Record(sm Sample) {
	if sk := s.sketches[sm.Kind]; sk != nil {
		sk.Add(sm.Value)
	}
}

// Sketch returns the sketch for a kind (nil when the kind isn't tracked).
func (s *SketchSink) Sketch(k Kind) *Sketch { return s.sketches[k] }

// States snapshots every tracked sketch, keyed by kind name.
func (s *SketchSink) States() map[string]SketchState {
	out := make(map[string]SketchState)
	for k, sk := range s.sketches {
		if sk != nil {
			out[Kind(k).String()] = sk.State()
		}
	}
	return out
}

// RunStreams is the serialized stream digest of one run: the per-kind
// quantile sketches and the bucketed time series. It travels inside
// stats.Results through the campaign journal, the distributed commit
// protocol, and the result cache, and round-trips JSON bit-exactly.
type RunStreams struct {
	Sketches map[string]SketchState `json:"sketches,omitempty"`
	Series   *SeriesState           `json:"series,omitempty"`
}

// Validate checks every sketch state in the digest (see
// SketchState.Validate). A nil digest is valid.
func (r *RunStreams) Validate() error {
	if r == nil {
		return nil
	}
	for name, st := range r.Sketches {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("sketch %q: %w", name, err)
		}
	}
	return nil
}

// SketchedKinds is the kind set the campaign pipeline sketches: the
// distribution-valued metrics (per-packet delay and hop count). Counter-like
// kinds are covered by the time series instead.
var SketchedKinds = []Kind{Delay, Hops}

// Quantiles materializes the standard percentile set for every sketch in the
// digest, keyed by kind name. Returns nil when there are no sketches, so
// results stay reflect.DeepEqual-stable through JSON round-trips.
func (r *RunStreams) Quantiles() map[string]QuantileSummary {
	if r == nil || len(r.Sketches) == 0 {
		return nil
	}
	out := make(map[string]QuantileSummary, len(r.Sketches))
	names := make([]string, 0, len(r.Sketches))
	for name := range r.Sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = FromState(r.Sketches[name]).Summary()
	}
	return out
}
