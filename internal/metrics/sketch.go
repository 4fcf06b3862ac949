package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DefaultCompression is the sketch compression δ used by the campaign
// pipeline. It bounds centroid count (and so memory and serialized size)
// while keeping tail quantiles (p95/p99) accurate to a fraction of a
// percentile on the skewed delay distributions interference scenes produce.
const DefaultCompression = 100

// Sketch is a merging t-digest: an online quantile summary with bounded
// memory. Incoming values buffer until the buffer fills, then a single
// merge pass folds them into a sorted centroid list whose resolution follows
// the k₁ scale function k(q) = δ/(2π)·asin(2q−1) — fine near the tails,
// coarse in the middle — so the centroid count stays below ~δ regardless of
// how many values are added.
//
// Determinism: every operation is a fixed sequence of float64 ops over
// deterministic state. Compression sorts the buffer (sort.Float64s) and
// merges with a stable tie-break (existing centroids before new values, left
// list before right on MergeState), so the same values in the same order —
// and the same MergeState call order — reproduce bit-identical centroids. State
// survives a JSON round-trip exactly (its codec writes, as encoding/json
// does, the shortest float64 that reads back exactly), which the campaign
// journal and the distributed result cache rely on for reflect.DeepEqual
// checkpoint equivalence.
type Sketch struct {
	compression float64
	count       float64 // total weight incl. buffered values
	min, max    float64

	means   []float64 // centroid means, sorted ascending
	weights []float64 // centroid weights, parallel to means

	buf []float64 // values not yet folded into centroids

	scratchM, scratchW []float64 // reused by compress to avoid per-pass allocation
}

// NewSketch creates a sketch with compression δ (centroid budget ~δ).
// Compressions below 20 are raised to 20.
func NewSketch(compression float64) *Sketch {
	if compression < 20 {
		compression = 20
	}
	bufCap := 4 * int(compression)
	centCap := int(2*compression) + 8 // a merge pass emits at most 2δ+8 centroids
	return &Sketch{
		compression: compression,
		means:       make([]float64, 0, centCap),
		weights:     make([]float64, 0, centCap),
		buf:         make([]float64, 0, bufCap),
	}
}

// Add feeds one value. Amortized allocation-free: values buffer in place and
// compress reuses scratch storage.
func (s *Sketch) Add(x float64) {
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count++
	s.buf = append(s.buf, x)
	if len(s.buf) == cap(s.buf) {
		s.compress()
	}
}

// Record implements Sink for single-kind streams; it adds the sample value.
func (s *Sketch) Record(sm Sample) { s.Add(sm.Value) }

// Count returns the total number of values (sum of weights).
func (s *Sketch) Count() float64 { return s.count }

// Min returns the smallest value seen (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest value seen (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// k is the k₁ scale function mapping quantile to centroid index space.
func (s *Sketch) k(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return s.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// kInv inverts k, clamping to [0,1].
func (s *Sketch) kInv(k float64) float64 {
	a := 2 * math.Pi * k / s.compression
	if a <= -math.Pi/2 {
		return 0
	}
	if a >= math.Pi/2 {
		return 1
	}
	return (math.Sin(a) + 1) / 2
}

// compress folds buffered values into the centroid list.
func (s *Sketch) compress() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	// Two-pointer merge of the sorted centroid list with the sorted buffer
	// (buffered values become weight-1 centroids; ties keep existing
	// centroids first).
	mm, mw := s.scratchM[:0], s.scratchW[:0]
	i, j := 0, 0
	for i < len(s.means) || j < len(s.buf) {
		if j >= len(s.buf) || (i < len(s.means) && s.means[i] <= s.buf[j]) {
			mm = append(mm, s.means[i])
			mw = append(mw, s.weights[i])
			i++
		} else {
			mm = append(mm, s.buf[j])
			mw = append(mw, 1)
			j++
		}
	}
	s.means, s.weights = s.mergePass(mm, mw, s.means[:0], s.weights[:0])
	s.scratchM, s.scratchW = mm[:0], mw[:0]
	s.buf = s.buf[:0]
}

// mergePass runs the greedy t-digest merge over a sorted centroid list,
// appending the result to outM/outW (which must be empty, possibly sharing
// no storage with ms/ws).
//
// The open centroid takes the next one while q ≤ kInv(k(x)+1), x the
// weight fraction before it. With y = 2x−1 and c = 2π/δ that bound is
// (sin(asin(y)+c)+1)/2, whose closed form (y·cos c + √(1−y²)·sin c + 1)/2
// needs no trig once sin c and cos c are known. closedLimit computes it
// only away from y = ±1, where Asin loses precision, and from y = cos c,
// where the bound reaches 1; there it is within 1e-13 of the trig value.
// A q more than limitMargin from it is therefore decided the same way as
// by the trig value, and only a q closer than that computes the trig
// value, at most once per emitted centroid. The pass emits exactly the
// centroids the trig comparison does (TestMergePassMatchesTrigPass,
// FuzzSketchMergePass).
func (s *Sketch) mergePass(ms, ws, outM, outW []float64) ([]float64, []float64) {
	var total float64
	for _, w := range ws {
		total += w
	}
	sinC, cosC := math.Sincos(2 * math.Pi / s.compression)
	var x, wSoFar float64
	approx, closed := closedLimit(x, sinC, cosC)
	var exact float64
	haveExact := false
	curM, curW := ms[0], ws[0]
	for idx := 1; idx < len(ms); idx++ {
		q := (wSoFar + curW + ws[idx]) / total
		var take bool
		if closed && math.Abs(q-approx) > limitMargin {
			take = q <= approx
		} else {
			if !haveExact {
				exact, haveExact = s.kInv(s.k(x)+1), true
			}
			take = q <= exact
		}
		if take {
			curW += ws[idx]
			curM += ws[idx] * (ms[idx] - curM) / curW
		} else {
			outM = append(outM, curM)
			outW = append(outW, curW)
			wSoFar += curW
			x = wSoFar / total
			approx, closed = closedLimit(x, sinC, cosC)
			haveExact = false
			curM, curW = ms[idx], ws[idx]
		}
	}
	outM = append(outM, curM)
	outW = append(outW, curW)
	return outM, outW
}

// limitMargin is how far from the closed-form bound a q must lie for the
// merge pass to decide by it: four orders of magnitude above the two
// bounds' largest difference in closedLimit's domain.
const limitMargin = 1e-9

// closedLimit is mergePass's closed-form bound for weight fraction x, and
// whether x lies in the domain where it is within 1e-13 of kInv(k(x)+1):
// 1−y² ≥ 1e-6 bounds Asin's error near y = ±1, and y ≤ cos c − 1e-6 keeps
// the trig bound below 1.
func closedLimit(x, sinC, cosC float64) (float64, bool) {
	y := float64(2*x) - 1
	r := (1 - y) * (1 + y)
	if !(r >= 1e-6 && y <= cosC-1e-6) {
		return 0, false
	}
	// Each product is rounded before it feeds a sum, so no CPU fuses them.
	return (float64(y*cosC) + float64(math.Sqrt(r)*sinC) + 1) / 2, true
}

// mergeCentroids folds a compressed digest — its count, range and sorted
// centroids — into s. The merge is deterministic in call order: s is
// compressed, the centroid lists are interleaved by mean (ties keep s's
// centroids first), and one merge pass re-compresses. The interleave goes
// through s's scratch slices, so a merge allocates nothing once they have
// grown.
func (s *Sketch) mergeCentroids(count, lo, hi float64, means, weights []float64) {
	if count == 0 {
		return
	}
	if s.count == 0 {
		s.min, s.max = lo, hi
	} else {
		if lo < s.min {
			s.min = lo
		}
		if hi > s.max {
			s.max = hi
		}
	}
	s.count += count
	s.compress()
	// Two-pointer interleave of the two sorted centroid lists, s's centroids
	// first on ties.
	mm, mw := s.scratchM[:0], s.scratchW[:0]
	i, j := 0, 0
	for i < len(s.means) || j < len(means) {
		if j >= len(means) || (i < len(s.means) && s.means[i] <= means[j]) {
			mm = append(mm, s.means[i])
			mw = append(mw, s.weights[i])
			i++
		} else {
			mm = append(mm, means[j])
			mw = append(mw, weights[j])
			j++
		}
	}
	s.means, s.weights = s.mergePass(mm, mw, s.means[:0], s.weights[:0])
	s.scratchM, s.scratchW = mm[:0], mw[:0]
}

// Quantile returns the q-quantile estimate (q in [0,1]) with linear
// interpolation between centroid centers, clamped to [Min, Max]. Empty
// sketches return 0.
func (s *Sketch) Quantile(q float64) float64 {
	s.compress()
	n := len(s.means)
	if n == 0 {
		return 0
	}
	if q <= 0 || s.count == 1 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Each product is rounded by float64(…) before it feeds a sum, so no
	// CPU fuses the two (w/2 compiles to a multiply).
	idx := float64(q * s.count)
	var cum float64
	for i := 0; i < n; i++ {
		center := cum + float64(s.weights[i]/2)
		if idx < center {
			if i == 0 {
				t := idx / center
				return s.min + float64(t*(s.means[0]-s.min))
			}
			prev := cum - float64(s.weights[i-1]/2)
			t := (idx - prev) / (center - prev)
			return s.means[i-1] + float64(t*(s.means[i]-s.means[i-1]))
		}
		cum += s.weights[i]
	}
	last := cum - float64(s.weights[n-1]/2)
	t := (idx - last) / (s.count - last)
	if t > 1 {
		t = 1
	}
	return s.means[n-1] + float64(t*(s.max-s.means[n-1]))
}

// SketchState is the serialized form of a Sketch. All fields round-trip
// through JSON bit-exactly (weights are integer-valued counts well below
// 2⁵³); codec.go writes and reads it byte for byte as encoding/json would.
type SketchState struct {
	Compression float64   `json:"compression"`
	Count       float64   `json:"count"`
	Min         float64   `json:"min,omitempty"`
	Max         float64   `json:"max,omitempty"`
	Means       []float64 `json:"means,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
}

// State compresses the sketch and snapshots it. The returned slices are
// copies (nil when the sketch is empty) so later Adds don't alias.
func (s *Sketch) State() SketchState {
	s.compress()
	st := SketchState{Compression: s.compression, Count: s.count}
	if s.count > 0 {
		st.Min, st.Max = s.min, s.max
	}
	if len(s.means) > 0 {
		st.Means = append([]float64(nil), s.means...)
		st.Weights = append([]float64(nil), s.weights...)
	}
	return st
}

// maxStateCompression bounds the compression a state may claim: FromState
// sizes the sketch's buffers by it. It is 100× DefaultCompression.
const maxStateCompression = 100 * DefaultCompression

// maxStateCount bounds a state's Count below 2⁵³, where whole float64
// counts stop being exact: below it, weights sum to Count in any order.
const maxStateCount = 1 << 53

// Validate reports whether st has the shape State gives: a compression
// FromState can size buffers for, one weight per mean, whole weights of at
// least 1 that sum exactly to Count, and means in ascending order within
// [Min, Max] (a centroid's mean never leaves the range of the values it
// folds). Merging a state without that shape can panic (a weight short of
// its mean, or a count with no centroids) or silently skew quantiles (merge
// and Quantile walk the means in order), so a state decoded from outside
// the process is validated before it is merged.
func (st SketchState) Validate() error {
	if !(st.Compression <= maxStateCompression) {
		return fmt.Errorf("metrics: sketch compression %v above %d", st.Compression, maxStateCompression)
	}
	if len(st.Means) != len(st.Weights) {
		return fmt.Errorf("metrics: sketch has %d means and %d weights", len(st.Means), len(st.Weights))
	}
	var sum float64
	for _, w := range st.Weights {
		if !(w >= 1) || w != math.Trunc(w) {
			return fmt.Errorf("metrics: sketch weight %v is not a count", w)
		}
		sum += w
	}
	if sum != st.Count || st.Count >= maxStateCount {
		return fmt.Errorf("metrics: sketch count %v, weights sum to %v", st.Count, sum)
	}
	if st.Count > 0 && st.Min > st.Max {
		return fmt.Errorf("metrics: sketch min %v above max %v", st.Min, st.Max)
	}
	prev := st.Min
	for i, m := range st.Means {
		if !(m >= prev && m <= st.Max) {
			return fmt.Errorf("metrics: sketch mean %d (%v) out of order or outside [%v, %v]", i, m, st.Min, st.Max)
		}
		prev = m
	}
	return nil
}

// FromState reconstructs a sketch from a snapshot. The reconstruction is
// exact: quantiles and subsequent merges behave identically to the original.
func FromState(st SketchState) *Sketch {
	s := NewSketch(st.Compression)
	s.count = st.Count
	if st.Count > 0 {
		s.min, s.max = st.Min, st.Max
	}
	s.means = append(s.means, st.Means...)
	s.weights = append(s.weights, st.Weights...)
	return s
}

// MergeState folds a serialized sketch into s without building that
// sketch: a state's centroids are already compressed, and its compression
// does not enter a merge.
func (s *Sketch) MergeState(st SketchState) {
	s.mergeCentroids(st.Count, st.Min, st.Max, st.Means, st.Weights)
}

// QuantileSummary is the fixed percentile set served in campaign results.
type QuantileSummary struct {
	Count float64 `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary materializes the standard percentile set from the sketch.
func (s *Sketch) Summary() QuantileSummary {
	return QuantileSummary{
		Count: s.Count(),
		Min:   s.Min(),
		Max:   s.Max(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}
