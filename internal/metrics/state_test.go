package metrics

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fedSketch is a sketch of n exponential samples drawn from seed.
func fedSketch(seed int64, n int) *Sketch {
	rng := rand.New(rand.NewSource(seed))
	s := NewSketch(DefaultCompression)
	for range n {
		s.Add(rng.ExpFloat64() * 0.01)
	}
	return s
}

func TestSketchStateValidate(t *testing.T) {
	merged := fedSketch(1, 5000)
	merged.MergeState(fedSketch(2, 700).State())
	for name, st := range map[string]SketchState{
		"empty":     NewSketch(DefaultCompression).State(),
		"singleton": fedSketch(3, 1).State(),
		"buffered":  fedSketch(4, 90).State(),
		"large":     fedSketch(5, 50_000).State(),
		"merged":    merged.State(),
		"zero":      {},
	} {
		if err := st.Validate(); err != nil {
			t.Errorf("%s: a state State gave is rejected: %v", name, err)
		}
	}

	for name, tc := range map[string]struct {
		st   SketchState
		want string
	}{
		"mean without weight":   {SketchState{Compression: 100, Count: 1, Means: []float64{1, 2}, Weights: []float64{1}}, "2 means and 1 weights"},
		"weight without mean":   {SketchState{Compression: 100, Count: 2, Means: []float64{1}, Weights: []float64{1, 1}}, "1 means and 2 weights"},
		"count, no centroids":   {SketchState{Compression: 100, Count: 3}, "weights sum to 0"},
		"count short of sum":    {SketchState{Compression: 100, Count: 1, Means: []float64{1, 2}, Weights: []float64{1, 1}}, "weights sum to 2"},
		"negative count":        {SketchState{Compression: 100, Count: -1}, "count -1"},
		"fractional weight":     {SketchState{Compression: 100, Count: 1.5, Means: []float64{1}, Weights: []float64{1.5}}, "not a count"},
		"zero weight":           {SketchState{Compression: 100, Means: []float64{1}, Weights: []float64{0}}, "not a count"},
		"inexact count":         {SketchState{Compression: 100, Count: 1 << 53, Means: []float64{1}, Weights: []float64{1 << 53}}, "weights sum to"},
		"min above max":         {SketchState{Compression: 100, Count: 1, Min: 2, Max: 1, Means: []float64{1}, Weights: []float64{1}}, "min 2 above max 1"},
		"compression too large": {SketchState{Compression: 1e12}, "compression"},
		"means out of order":    {SketchState{Compression: 100, Count: 2, Min: 1, Max: 2, Means: []float64{2, 1}, Weights: []float64{1, 1}}, "mean 1 (1) out of order"},
		"mean below min":        {SketchState{Compression: 100, Count: 1, Min: 1, Max: 2, Means: []float64{0.5}, Weights: []float64{1}}, "mean 0 (0.5) out of order or outside [1, 2]"},
		"mean above max":        {SketchState{Compression: 100, Count: 1, Min: 1, Max: 2, Means: []float64{3}, Weights: []float64{1}}, "outside [1, 2]"},
	} {
		err := tc.st.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestRunStreamsValidateNamesTheSketch checks that a digest is as valid as
// its worst sketch, and that nil and sketch-free digests are valid.
func TestRunStreamsValidateNamesTheSketch(t *testing.T) {
	var nilStreams *RunStreams
	if err := nilStreams.Validate(); err != nil {
		t.Fatalf("nil digest: %v", err)
	}
	r := &RunStreams{Sketches: map[string]SketchState{
		"delay": fedSketch(1, 100).State(),
		"hops":  {Compression: 100, Count: 1, Means: []float64{1, 2}, Weights: []float64{1}},
	}}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), `"hops"`) {
		t.Fatalf("Validate() = %v, want an error naming hops", err)
	}
}

// FuzzSketchState decodes arbitrary JSON into a SketchState, the way a
// commit body, a journal line or a cache entry carries one. A state that
// validates must merge without panicking into an empty and into a fed
// sketch, add its count, leave what Merge(FromState(st)) leaves, twice in a
// row, and leave a state that validates and survives a JSON round trip
// exactly.
func FuzzSketchState(f *testing.F) {
	for _, s := range []*Sketch{NewSketch(DefaultCompression), fedSketch(1, 1), fedSketch(2, 3000)} {
		blob, err := json.Marshal(s.State())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"compression":100,"count":1,"means":[1,2],"weights":[1]}`))
	f.Add([]byte(`{"compression":100,"count":3}`))
	f.Add([]byte(`{"compression":1e300,"count":0}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var st SketchState
		if json.Unmarshal(blob, &st) != nil || st.Validate() != nil {
			return
		}
		for _, into := range []*Sketch{NewSketch(DefaultCompression), fedSketch(3, 500)} {
			want := into.Count() + st.Count
			ref := FromState(into.State())
			into.MergeState(st)
			if into.Count() != want {
				t.Fatalf("merged count %v, want %v", into.Count(), want)
			}
			ref.MergeState(FromState(st).State())
			// The second merge reuses the scratch slices the first grew.
			for i := range 2 {
				if i > 0 {
					into.MergeState(st)
					ref.MergeState(FromState(st).State())
				}
				if !reflect.DeepEqual(into.State(), ref.State()) {
					t.Fatalf("merge %d: MergeState(st) left another sketch than MergeState(FromState(st).State())", i+1)
				}
			}
			into.Summary()
			got := into.State()
			if err := got.Validate(); err != nil && got.Count < maxStateCount {
				t.Fatalf("merged state does not validate: %v", err)
			}
			enc, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			var back SketchState
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, got) {
				t.Fatal("merged state does not survive a JSON round trip")
			}
		}
	})
}
