package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"adhocsim/internal/sim"
)

// plainStreams is RunStreams with encoding/json's reflective codec all the
// way down: the reference the codec must match.
type plainStreams struct {
	Sketches map[string]plainSketchState `json:"sketches,omitempty"`
	Series   *plainSeriesState           `json:"series,omitempty"`
}

// sampleStreams is a digest shaped like a campaign unit's: 20 s in 60
// buckets, traffic in the second half, whole-valued kinds but the delay,
// and sketches of about 120 delays and hop counts.
func sampleStreams(seed int64) *RunStreams {
	rng := rand.New(rand.NewSource(seed))
	win := NewWindow(20*sim.Second, DefaultSeriesBuckets)
	delay, hops := NewSketch(DefaultCompression), NewSketch(DefaultCompression)
	for range 120 {
		at := sim.Time(10*sim.Second + sim.Duration(rng.Int63n(int64(10*sim.Second))))
		d, h := rng.ExpFloat64()*0.005, float64(1+rng.Intn(3))
		delay.Add(d)
		hops.Add(h)
		for _, s := range []Sample{{at, Originated, 1}, {at, Delivered, 512}, {at, Delay, d}, {at, Hops, h}, {at, DataTx, 512}, {at, RoutingTx, 48}} {
			win.Record(s)
		}
	}
	return &RunStreams{
		Sketches: map[string]SketchState{"delay": delay.State(), "hops": hops.State()},
		Series:   win.State(),
	}
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameFloatMaps(a, b map[string][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameFloats(v, w) {
			return false
		}
	}
	return true
}

func sameSketch(a SketchState, b plainSketchState) bool {
	return math.Float64bits(a.Compression) == math.Float64bits(b.Compression) &&
		math.Float64bits(a.Count) == math.Float64bits(b.Count) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		sameFloats(a.Means, b.Means) && sameFloats(a.Weights, b.Weights)
}

func sameSeries(a *SeriesState, b *plainSeriesState) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return math.Float64bits(a.BucketS) == math.Float64bits(b.BucketS) &&
		sameFloatMaps(a.Counts, b.Counts) && sameFloatMaps(a.Sums, b.Sums)
}

func sameStreams(a *RunStreams, b *plainStreams) bool {
	if (a.Sketches == nil) != (b.Sketches == nil) || len(a.Sketches) != len(b.Sketches) {
		return false
	}
	for k, st := range a.Sketches {
		if pst, ok := b.Sketches[k]; !ok || !sameSketch(st, pst) {
			return false
		}
	}
	return sameSeries(a.Series, b.Series)
}

// checkCodec decodes blob with the codec and with encoding/json alone, as a
// digest, a sketch state and a series. Both must fail or both succeed with
// the same bits, and what decoded must encode to the same bytes.
func checkCodec(t *testing.T, blob []byte) {
	t.Helper()
	check := func(what string, got, want any, same func() bool) {
		t.Helper()
		errGot, errWant := json.Unmarshal(blob, got), json.Unmarshal(blob, want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: codec error %v, encoding/json error %v", what, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !same() {
			t.Fatalf("%s: codec decoded other values than encoding/json", what)
		}
		encGot, errGot := json.Marshal(got)
		encWant, errWant := json.Marshal(want)
		if errGot != nil || errWant != nil {
			t.Fatalf("%s: re-encoding: codec %v, encoding/json %v", what, errGot, errWant)
		}
		if !bytes.Equal(encGot, encWant) {
			t.Fatalf("%s: codec wrote\n%s\nencoding/json wrote\n%s", what, encGot, encWant)
		}
	}
	var rs RunStreams
	var prs plainStreams
	check("RunStreams", &rs, &prs, func() bool { return sameStreams(&rs, &prs) })
	var st SketchState
	var pst plainSketchState
	check("SketchState", &st, &pst, func() bool { return sameSketch(st, pst) })
	var ss SeriesState
	var pss plainSeriesState
	check("SeriesState", &ss, &pss, func() bool { return sameSeries(&ss, &pss) })
}

// edgeFloats sit on encoding/json's format cut-offs and float64's limits.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-10, 1e21, 9.999999999999999e20,
	1e100, -1e-300, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 123456789, -2.5,
}

// FuzzStreamsJSON feeds arbitrary bytes to the stream digests' codec and to
// encoding/json's reflective decoding of the same shapes: they must agree
// on failure, on every float's bits, and on the bytes each re-encodes to.
func FuzzStreamsJSON(f *testing.F) {
	for _, rs := range []*RunStreams{
		sampleStreams(1),
		{},
		{Sketches: map[string]SketchState{"delay": {Compression: 100, Count: 2, Min: -0.5, Max: 7, Means: edgeFloats, Weights: []float64{}}}},
		{Series: &SeriesState{BucketS: 0.25, Counts: map[string][]float64{"a<b": edgeFloats, "n": nil, "e": {}}, Sums: map[string][]float64{}}},
	} {
		blob, err := json.Marshal(rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if blob, err = json.MarshalIndent(rs, "", " \t"); err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, s := range []string{
		`null`,
		`{"sketches":{"x":null},"series":null}`,
		`{"sketches":{"x":{"count":1,"Count":2,"means":[1],"means":[2,3]}}}`,
		`{"sketches":{"x":{"compression":1e400}}}`,
		`{"sketches":{"x":{"compression":"100"}}}`,
		`{"sketches":{"x":{"min":-0,"max":1E+2,"means":[0.0,1e-0],"weights":[],"extra":{"a":[1]}}}}`,
		`{"series":{"bucket_s":1,"counts":{"delay":[1],"delay":[2]},"counts":{"b":[3]},"sums":null}}`,
		`{"series":{"BUCKET_S":1,"counts":{" ":[1],"ſ":[01]}}}`,
		`{"compression":100,"count":1,"min":1,"max":1,"means":[1],"weights":[1]}`,
		`{"bucket_s":2,"counts":{"delay":[1,2]},"sums":{"delay":[0.5,-0]}} `,
		`{"means":[1,2,]}`,
		`{"count":-}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkCodec)
}

// TestStreamsJSONEncodingErrors: NaN and ±Inf have no JSON form, so the
// codec fails where encoding/json fails.
func TestStreamsJSONEncodingErrors(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, pair := range map[string][2]any{
			"sketch": {SketchState{Count: 1, Means: []float64{v}, Weights: []float64{1}}, plainSketchState{Count: 1, Means: []float64{v}, Weights: []float64{1}}},
			"series": {&SeriesState{BucketS: v}, &plainSeriesState{BucketS: v}},
		} {
			_, errGot := json.Marshal(pair[0])
			_, errWant := json.Marshal(pair[1])
			if errGot == nil || errWant == nil {
				t.Errorf("%s with %v: codec error %v, encoding/json error %v", name, v, errGot, errWant)
			}
		}
	}
}

// TestStreamsJSONDecodesIntoSetTargets: decoding into a state that already
// holds slices or maps keeps encoding/json's merge semantics (the codec
// steps aside), and a decoded state owns none of the input's bytes.
func TestStreamsJSONDecodesIntoSetTargets(t *testing.T) {
	st := SketchState{Compression: 7, Means: []float64{1, 2, 3}, Weights: []float64{1, 1, 1}}
	pst := plainSketchState(st)
	pst.Means = append([]float64(nil), st.Means...)
	pst.Weights = append([]float64(nil), st.Weights...)
	blob := []byte(`{"count":2,"means":[5]}`)
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &pst); err != nil {
		t.Fatal(err)
	}
	if !sameSketch(st, pst) {
		t.Fatalf("codec decoded %+v, encoding/json %+v", st, pst)
	}

	ss := SeriesState{Counts: map[string][]float64{"keep": {1}}}
	pss := plainSeriesState{Counts: map[string][]float64{"keep": {1}}}
	blob = []byte(`{"counts":{"delay":[2]}}`)
	if err := json.Unmarshal(blob, &ss); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &pss); err != nil {
		t.Fatal(err)
	}
	if !sameSeries(&ss, &pss) {
		t.Fatalf("codec decoded %+v, encoding/json %+v", ss, pss)
	}

	enc, err := json.Marshal(sampleStreams(2))
	if err != nil {
		t.Fatal(err)
	}
	var rs RunStreams
	if err := json.Unmarshal(enc, &rs); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(&rs)
	for i := range enc {
		enc[i] = '0'
	}
	if got, _ := json.Marshal(&rs); !bytes.Equal(got, want) {
		t.Fatal("a decoded digest changed with the bytes it was decoded from")
	}
}

// BenchmarkStreamsJSON prices one unit's digest through the codec and
// through encoding/json's reflection.
func BenchmarkStreamsJSON(b *testing.B) {
	rs := sampleStreams(1)
	blob, err := json.Marshal(rs)
	if err != nil {
		b.Fatal(err)
	}
	var prs plainStreams
	if err := json.Unmarshal(blob, &prs); err != nil {
		b.Fatal(err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = json.Marshal(rs)
		}
	})
	b.Run("encode/reflect", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = json.Marshal(&prs)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out RunStreams
			_ = json.Unmarshal(blob, &out)
		}
	})
	b.Run("decode/reflect", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out plainStreams
			_ = json.Unmarshal(blob, &out)
		}
	})
}
