package metrics

import (
	"fmt"

	"adhocsim/internal/sim"
)

// DefaultSeriesBuckets is the time-series resolution used by the campaign
// pipeline: one run's horizon is split into at most this many fixed
// sim-time buckets.
const DefaultSeriesBuckets = 60

// Window is a Sink that accumulates the sample stream into fixed sim-time
// buckets: per bucket and per kind it keeps the sample count and the value
// sum, so delivered counts/bytes, mean delay, and drop rates can be plotted
// over a run without a trace. Memory is O(buckets × kinds), independent of
// node count and run length.
//
// Bucketing is integer math on sim.Time, so it is exactly deterministic.
type Window struct {
	width   sim.Duration
	buckets int
	counts  [NumKinds][]float64
	sums    [NumKinds][]float64
}

// Geometry is a window's bucket layout. States of windows with one
// geometry merge bucket-wise.
type Geometry struct {
	Width   sim.Duration
	Buckets int
}

// WindowGeometry is the layout NewWindow(horizon, maxBuckets) builds.
func WindowGeometry(horizon sim.Duration, maxBuckets int) Geometry {
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	width := horizon / sim.Duration(maxBuckets)
	if width <= 0 {
		width = 1
	}
	buckets := int((horizon + width - 1) / width)
	if buckets < 1 {
		buckets = 1
	}
	if buckets > maxBuckets {
		buckets = maxBuckets
	}
	return Geometry{Width: width, Buckets: buckets}
}

// NewWindow creates a window covering [0, horizon) with at most maxBuckets
// buckets. Samples at or beyond the horizon clamp into the last bucket.
func NewWindow(horizon sim.Duration, maxBuckets int) *Window {
	g := WindowGeometry(horizon, maxBuckets)
	w := &Window{width: g.Width, buckets: g.Buckets}
	for k := range w.counts {
		w.counts[k] = make([]float64, g.Buckets)
		w.sums[k] = make([]float64, g.Buckets)
	}
	return w
}

// Record implements Sink.
func (w *Window) Record(s Sample) {
	i := int(sim.Duration(s.At) / w.width)
	if i >= w.buckets {
		i = w.buckets - 1
	}
	if i < 0 {
		i = 0
	}
	w.counts[s.Kind][i]++
	w.sums[s.Kind][i] += s.Value
}

// SeriesState is the serialized form of a Window: per-kind per-bucket sample
// counts and value sums. Counts and sums always carry every kind (uniform
// keys), so states from runs of the same spec merge bucket-wise.
type SeriesState struct {
	// BucketS is the bucket width in seconds.
	BucketS float64 `json:"bucket_s"`
	// Counts maps kind name to per-bucket sample counts.
	Counts map[string][]float64 `json:"counts"`
	// Sums maps kind name to per-bucket value sums (bytes for delivered and
	// transmissions, seconds for delay, sample counts for unit-valued kinds).
	Sums map[string][]float64 `json:"sums"`
}

// State snapshots the window. Slices are copies; later Records don't alias.
func (w *Window) State() *SeriesState {
	st := &SeriesState{
		BucketS: w.width.Seconds(),
		Counts:  make(map[string][]float64, NumKinds),
		Sums:    make(map[string][]float64, NumKinds),
	}
	for k := Kind(0); k < NumKinds; k++ {
		st.Counts[k.String()] = append([]float64(nil), w.counts[k]...)
		st.Sums[k.String()] = append([]float64(nil), w.sums[k]...)
	}
	return st
}

// CheckGeometry reports whether s is the state of a window with geometry g:
// its bucket width, and counts and sums of every kind, each g.Buckets long.
// States that pass merge without error. A nil state passes.
func (s *SeriesState) CheckGeometry(g Geometry) error {
	if s == nil {
		return nil
	}
	if s.BucketS != g.Width.Seconds() {
		return fmt.Errorf("metrics: series bucket width %v s, want %v s", s.BucketS, g.Width.Seconds())
	}
	if len(s.Counts) != int(NumKinds) || len(s.Sums) != int(NumKinds) {
		return fmt.Errorf("metrics: series has %d count and %d sum kinds, want %d", len(s.Counts), len(s.Sums), NumKinds)
	}
	for _, name := range kindNames {
		if len(s.Counts[name]) != g.Buckets || len(s.Sums[name]) != g.Buckets {
			return fmt.Errorf("metrics: series geometry mismatch for %q: %d count and %d sum buckets, want %d",
				name, len(s.Counts[name]), len(s.Sums[name]), g.Buckets)
		}
	}
	return nil
}

// Merge adds o's buckets into s element-wise. Both states must come from
// windows of identical geometry (same spec → same horizon and bucket count);
// a mismatch is an error and leaves s unchanged. Each of o's maps is walked
// once: the check pairs every kind's buckets with s's, and the adds run
// from those pairs only once every kind has matched.
func (s *SeriesState) Merge(o *SeriesState) error {
	if o == nil {
		return nil
	}
	if s.BucketS != o.BucketS {
		return fmt.Errorf("metrics: series bucket width mismatch: %v vs %v", s.BucketS, o.BucketS)
	}
	var buf [2 * NumKinds][2][]float64
	pairs, err := pairBuckets(buf[:0], s.Counts, o.Counts)
	if err == nil {
		pairs, err = pairBuckets(pairs, s.Sums, o.Sums)
	}
	if err != nil {
		return err
	}
	for _, p := range pairs {
		dst, src := p[0], p[1]
		for i := range src {
			dst[i] += src[i]
		}
	}
	return nil
}

// pairBuckets appends a (dst, src) bucket-slice pair for every kind of src,
// or fails on the first kind dst lacks or holds at another length.
func pairBuckets(pairs [][2][]float64, dst, src map[string][]float64) ([][2][]float64, error) {
	for name, sb := range src {
		db, ok := dst[name]
		if !ok || len(db) != len(sb) {
			return nil, fmt.Errorf("metrics: series geometry mismatch for %q", name)
		}
		pairs = append(pairs, [2][]float64{db, sb})
	}
	return pairs, nil
}

// Clone deep-copies the state (nil stays nil).
func (s *SeriesState) Clone() *SeriesState {
	if s == nil {
		return nil
	}
	out := &SeriesState{
		BucketS: s.BucketS,
		Counts:  make(map[string][]float64, len(s.Counts)),
		Sums:    make(map[string][]float64, len(s.Sums)),
	}
	for k, v := range s.Counts {
		out.Counts[k] = append([]float64(nil), v...)
	}
	for k, v := range s.Sums {
		out.Sums[k] = append([]float64(nil), v...)
	}
	return out
}
