package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQuantile is the reference: nearest-rank with interpolation disabled
// is too coarse for comparison, so use the same definition the sketch
// targets (linear interpolation over the empirical CDF).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func TestSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		gen  func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 0.05 }}, // delay-like skew
		{"bimodal", func() float64 {
			if rng.Intn(10) == 0 {
				return 1 + rng.Float64()
			}
			return 0.01 * rng.Float64()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200_000
			s := NewSketch(DefaultCompression)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = tc.gen()
				s.Add(xs[i])
			}
			sort.Float64s(xs)
			for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
				got := s.Quantile(q)
				// Rank error: where does the estimate fall in the true CDF?
				rank := float64(sort.SearchFloat64s(xs, got)) / n
				if d := math.Abs(rank - q); d > 0.01 {
					t.Errorf("q=%v: estimate %v has true rank %v (rank error %v)", q, got, rank, d)
				}
			}
			if got, want := s.Min(), xs[0]; got != want {
				t.Errorf("Min = %v, want %v", got, want)
			}
			if got, want := s.Max(), xs[n-1]; got != want {
				t.Errorf("Max = %v, want %v", got, want)
			}
			if got, want := s.Count(), float64(n); got != want {
				t.Errorf("Count = %v, want %v", got, want)
			}
		})
	}
}

func TestSketchBoundedCentroids(t *testing.T) {
	// 5M samples ≈ the sample volume of a 10k-node city run; memory must
	// stay at the fixed centroid cap regardless.
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(DefaultCompression)
	for i := 0; i < 5_000_000; i++ {
		s.Add(rng.ExpFloat64())
	}
	if c := len(s.State().Means); c > 2*DefaultCompression {
		t.Fatalf("centroids = %d, want ≤ 2δ = %d", c, 2*DefaultCompression)
	}
	// Buffer and centroid storage never grow past their initial capacity.
	if cap(s.buf) != 4*DefaultCompression {
		t.Errorf("buffer capacity grew to %d", cap(s.buf))
	}
}

func TestSketchDeterminismAndJSONRoundTrip(t *testing.T) {
	feed := func() *Sketch {
		rng := rand.New(rand.NewSource(11))
		s := NewSketch(DefaultCompression)
		for i := 0; i < 50_000; i++ {
			s.Add(rng.ExpFloat64() * 0.01)
		}
		return s
	}
	a, b := feed(), feed()
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("same input order must produce bit-identical state")
	}
	// JSON round-trip is exact.
	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st SketchState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, a.State()) {
		t.Fatal("sketch state must survive a JSON round-trip bit-exactly")
	}
	// Reconstruction is exact: quantiles agree bit-for-bit.
	r := FromState(st)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := r.Quantile(q), a.Quantile(q); got != want {
			t.Errorf("Quantile(%v): reconstructed %v != original %v", q, got, want)
		}
	}
}

func TestSketchMergeDeterministicInOrder(t *testing.T) {
	part := func(seed int64) SketchState {
		rng := rand.New(rand.NewSource(seed))
		s := NewSketch(DefaultCompression)
		for i := 0; i < 20_000; i++ {
			s.Add(rng.Float64())
		}
		return s.State()
	}
	parts := []SketchState{part(1), part(2), part(3), part(4)}

	fold := func() SketchState {
		acc := FromState(parts[0])
		for _, p := range parts[1:] {
			acc.MergeState(p)
		}
		return acc.State()
	}
	first, second := fold(), fold()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("in-order merge must be deterministic")
	}
	// Merged sketch still answers quantiles sensibly over the union.
	m := FromState(first)
	if m.Count() != 80_000 {
		t.Fatalf("merged count = %v, want 80000", m.Count())
	}
	if p50 := m.Quantile(0.5); math.Abs(p50-0.5) > 0.02 {
		t.Errorf("merged p50 = %v, want ≈0.5", p50)
	}
	if c := len(first.Means); c > 2*DefaultCompression+8 {
		t.Errorf("merged centroids %d exceed the 2δ+8 cap", c)
	}
	// A resume that rebuilds from serialized state mid-fold lands on the
	// same bits as the uninterrupted fold.
	acc := FromState(parts[0])
	acc.MergeState(parts[1])
	resumed := FromState(acc.State())
	resumed.MergeState(parts[2])
	resumed.MergeState(parts[3])
	if !reflect.DeepEqual(resumed.State(), first) {
		t.Fatal("fold resumed from serialized state must match uninterrupted fold")
	}
}

func TestSketchEmptyAndSingleton(t *testing.T) {
	s := NewSketch(DefaultCompression)
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	st := s.State()
	if st.Means != nil || st.Weights != nil {
		t.Fatal("empty state must keep nil slices for DeepEqual-through-JSON")
	}
	s.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("singleton Quantile(%v) = %v, want 42", q, got)
		}
	}
	// Merging an empty sketch is a no-op on state.
	before := s.State()
	s.MergeState(SketchState{Compression: DefaultCompression})
	if !reflect.DeepEqual(s.State(), before) {
		t.Fatal("merging empty sketches must not change state")
	}
	// Merging into an empty sketch adopts the other side.
	e := NewSketch(DefaultCompression)
	e.MergeState(before)
	if e.Quantile(0.5) != 42 || e.Count() != 1 {
		t.Fatal("merge into empty sketch must adopt the source")
	}
}

func TestQuantileSummary(t *testing.T) {
	s := NewSketch(DefaultCompression)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summary()
	if sum.Count != 1000 || sum.Min != 1 || sum.Max != 1000 {
		t.Fatalf("summary bounds wrong: %+v", sum)
	}
	if !(sum.P50 <= sum.P90 && sum.P90 <= sum.P95 && sum.P95 <= sum.P99) {
		t.Fatalf("percentiles not monotone: %+v", sum)
	}
	if math.Abs(sum.P50-500) > 15 || math.Abs(sum.P99-990) > 10 {
		t.Fatalf("percentiles off: %+v", sum)
	}
}

// trigMergePass is the reference merge pass: every centroid it emits
// recomputes the bound as kInv(k(x)+1), with trig. mergePass must emit
// its centroids bit for bit.
func trigMergePass(s *Sketch, ms, ws []float64) (outM, outW []float64) {
	var total float64
	for _, w := range ws {
		total += w
	}
	var wSoFar float64
	curM, curW := ms[0], ws[0]
	qLimit := s.kInv(s.k(0) + 1)
	for idx := 1; idx < len(ms); idx++ {
		q := (wSoFar + curW + ws[idx]) / total
		if q <= qLimit {
			curW += ws[idx]
			curM += ws[idx] * (ms[idx] - curM) / curW
		} else {
			outM = append(outM, curM)
			outW = append(outW, curW)
			wSoFar += curW
			qLimit = s.kInv(s.k(wSoFar/total) + 1)
			curM, curW = ms[idx], ws[idx]
		}
	}
	return append(outM, curM), append(outW, curW)
}

// checkMergePass runs mergePass and trigMergePass on one centroid list and
// reports the first centroid where they differ in any bit.
func checkMergePass(t *testing.T, compression float64, ms, ws []float64) {
	t.Helper()
	s := &Sketch{compression: compression} // the pass reads only δ
	gotM, gotW := s.mergePass(ms, ws, nil, nil)
	wantM, wantW := trigMergePass(s, ms, ws)
	if len(gotM) != len(wantM) {
		t.Fatalf("δ=%v, %d centroids: emitted %d, trig pass %d", compression, len(ms), len(gotM), len(wantM))
	}
	for i := range gotM {
		if math.Float64bits(gotM[i]) != math.Float64bits(wantM[i]) || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("δ=%v, %d centroids: centroid %d is (%v, %v), trig pass (%v, %v)",
				compression, len(ms), i, gotM[i], gotW[i], wantM[i], wantW[i])
		}
	}
}

// centroidWeight decodes one weight: 1 (a buffered value) when b0 < 128,
// otherwise a whole number in [2^e, 2^(e+1)) with e < 52, so weights reach
// 2⁵², where a state's count stops.
func centroidWeight(b0 byte, mant uint16) float64 {
	if b0 < 128 {
		return 1
	}
	return math.Floor(math.Ldexp(1+float64(mant)/65536, int(b0-128)%52))
}

// TestMergePassMatchesTrigPass compares the merge pass with the trig pass
// on 200 000 random sorted centroid lists of up to 600 centroids, at the
// compressions the campaign pipeline and a state can use and at random ones
// between. A third of the lists have unit weights (a buffer compressed on
// its own, which reaches the tail where the bound is 1), a third weights
// up to 1 024 (merged digests), and a third centroidWeight's mix of unit
// and log-uniform weights up to 2⁵². -short (the race run) takes 20 000.
func TestMergePassMatchesTrigPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []float64{20, 50, DefaultCompression, 200, 1000, maxStateCompression}
	buf := make([]float64, 2*600)
	passes := 200_000
	if testing.Short() {
		passes = 20_000
	}
	for i := range passes {
		compression := 20 + rng.Float64()*(maxStateCompression-20)
		if i%2 == 0 {
			compression = fixed[rng.Intn(len(fixed))]
		}
		n := 1 + rng.Intn(600)
		ms, ws := buf[:n], buf[600:600+n]
		var m float64
		for j := range ms {
			r := rng.Uint64()
			m += float64(r >> 40)
			ms[j] = m
			switch i % 3 {
			case 0:
				ws[j] = 1
			case 1:
				ws[j] = float64(1 + r&1023)
			default:
				ws[j] = centroidWeight(byte(r), uint16(r>>8))
			}
		}
		checkMergePass(t, compression, ms, ws)
	}
}

// TestMergePassAtTheBound puts q on the trig bound itself and a few
// weight units either side of it, where the closed form must not decide:
// the open centroid starts at x = w0/2⁵², from the first weights to the
// last, and the next centroid takes the merged weight to ⌊kInv(k(x)+1)·2⁵²⌋
// + d for d in −2…2. Random lists almost never land that close.
func TestMergePassAtTheBound(t *testing.T) {
	const total = 1 << 52
	rng := rand.New(rand.NewSource(2))
	starts := []float64{1, 2, 3, 4, 1 << 10, 1 << 26, total / 2, total - 1<<30}
	for range 200 {
		starts = append(starts, float64(1+rng.Int63n(total-1)))
	}
	for _, compression := range []float64{20, 50, DefaultCompression, 200, 1000, maxStateCompression} {
		s := &Sketch{compression: compression}
		for _, w0 := range starts {
			bound := math.Floor(s.kInv(s.k(w0/total)+1) * total)
			for d := -2.0; d <= 2; d++ {
				// w0 closes at once; w1 then takes the merged weight to one
				// below the target, and the unit w2 onto it; w3 fills the total.
				w1 := bound + d - w0 - 1
				w3 := total - (bound + d)
				if w1 < 1 || w3 < 1 {
					continue
				}
				checkMergePass(t, compression, []float64{1, 2, 3, 4}, []float64{w0, w1, 1, w3})
			}
		}
	}
}

// FuzzSketchMergePass compares the merge pass with the trig pass bit for
// bit on fuzzed centroid lists: four bytes a centroid (a weight as
// centroidWeight decodes it, then a mean step), at a compression from 20 to
// maxStateCompression.
func FuzzSketchMergePass(f *testing.F) {
	f.Add(uint16(4000), []byte{})
	f.Add(uint16(0), bytes.Repeat([]byte{0, 0, 0, 1}, 400))
	f.Add(uint16(65535), bytes.Repeat([]byte{0, 1, 2, 3, 200, 9, 9, 0}, 300))
	f.Add(uint16(500), bytes.Repeat([]byte{179, 255, 255, 7, 0, 0, 0, 1, 0, 0, 0, 0}, 100))
	f.Fuzz(func(t *testing.T, delta uint16, data []byte) {
		compression := 20 + float64(delta)*(maxStateCompression-20)/math.MaxUint16
		n := min(len(data)/4, 2000)
		if n == 0 {
			return
		}
		ms, ws := make([]float64, n), make([]float64, n)
		var m float64
		for j := range n {
			b := data[4*j : 4*j+4]
			ws[j] = centroidWeight(b[0], uint16(b[1])<<8|uint16(b[2]))
			m += float64(b[3]) / 16
			ms[j] = m
		}
		checkMergePass(t, compression, ms, ws)
	})
}
