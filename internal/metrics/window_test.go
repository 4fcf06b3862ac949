package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adhocsim/internal/sim"
)

// KindByName resolves a wire name back to its Kind.
func KindByName(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown kind %q", name)
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		got, err := KindByName(name)
		if err != nil || got != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v", name, got, err, k)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Fatal("KindByName must reject unknown names")
	}
}

func TestWindowBucketing(t *testing.T) {
	w := NewWindow(60*sim.Second, 6) // 10 s buckets
	w.Record(Sample{At: 0, Kind: Delivered, Value: 512})
	w.Record(Sample{At: sim.Time(9 * sim.Second), Kind: Delivered, Value: 512})
	w.Record(Sample{At: sim.Time(10 * sim.Second), Kind: Delivered, Value: 512})
	w.Record(Sample{At: sim.Time(59 * sim.Second), Kind: Delay, Value: 0.25})
	w.Record(Sample{At: sim.Time(60 * sim.Second), Kind: Delay, Value: 0.75}) // clamps into last bucket
	st := w.State()
	if st.BucketS != 10 {
		t.Fatalf("BucketS = %v, want 10", st.BucketS)
	}
	if got := st.Counts[Delivered.String()]; !reflect.DeepEqual(got, []float64{2, 1, 0, 0, 0, 0}) {
		t.Fatalf("delivered counts = %v", got)
	}
	if got := st.Sums[Delivered.String()]; got[0] != 1024 || got[1] != 512 {
		t.Fatalf("delivered sums = %v", got)
	}
	if got := st.Counts[Delay.String()]; got[5] != 2 {
		t.Fatalf("delay must clamp into last bucket: %v", got)
	}
	if got := st.Sums[Delay.String()]; got[5] != 1.0 {
		t.Fatalf("delay sums = %v", got)
	}
	// Every kind is present with uniform geometry.
	for k := Kind(0); k < NumKinds; k++ {
		if len(st.Counts[k.String()]) != 6 || len(st.Sums[k.String()]) != 6 {
			t.Fatalf("kind %v missing uniform buckets", k)
		}
	}
}

func TestSeriesStateMergeAndRoundTrip(t *testing.T) {
	mk := func(v float64) *SeriesState {
		w := NewWindow(30*sim.Second, 3)
		w.Record(Sample{At: sim.Time(5 * sim.Second), Kind: Originated, Value: v})
		return w.State()
	}
	a, b := mk(1), mk(1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Counts[Originated.String()][0]; got != 2 {
		t.Fatalf("merged count = %v, want 2", got)
	}
	// Geometry mismatch is rejected without mutation.
	w2 := NewWindow(30*sim.Second, 5)
	before := a.Clone()
	if err := a.Merge(w2.State()); err == nil {
		t.Fatal("geometry mismatch must error")
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("failed merge must not mutate the receiver")
	}
	// A partial mismatch — every count kind matches, one sum kind is a
	// bucket short — is found only after the counts checked out, and still
	// leaves the receiver as it was.
	partial := mk(1)
	partial.Sums[Delay.String()] = partial.Sums[Delay.String()][1:]
	if err := a.Merge(partial); err == nil || !strings.Contains(err.Error(), `"delay"`) {
		t.Fatalf("partial mismatch: Merge = %v, want an error naming delay", err)
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("a partially matching merge must not mutate the receiver")
	}
	if n := testing.AllocsPerRun(10, func() { _ = before.Clone().Merge(b) }) - testing.AllocsPerRun(10, func() { before.Clone() }); n != 0 {
		t.Fatalf("Merge allocates %v objects, want 0", n)
	}
	// JSON round-trip is exact.
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var rt SeriesState
	if err := json.Unmarshal(blob, &rt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&rt, a) {
		t.Fatal("series state must survive a JSON round-trip exactly")
	}
}

func TestSketchSinkRoutesKinds(t *testing.T) {
	s := NewSketchSink(DefaultCompression, Delay, Hops)
	s.Record(Sample{Kind: Delay, Value: 0.5})
	s.Record(Sample{Kind: Hops, Value: 3})
	s.Record(Sample{Kind: RoutingTx, Value: 64}) // not tracked
	if got := s.Sketch(Delay).Count(); got != 1 {
		t.Fatalf("delay count = %v", got)
	}
	if s.Sketch(RoutingTx) != nil {
		t.Fatal("untracked kind must have nil sketch")
	}
	states := s.States()
	if len(states) != 2 {
		t.Fatalf("States() = %v keys, want 2", len(states))
	}
	rs := &RunStreams{Sketches: states}
	qs := rs.Quantiles()
	if qs[Delay.String()].P50 != 0.5 || qs[Hops.String()].Count != 1 {
		t.Fatalf("Quantiles() = %+v", qs)
	}
	if (&RunStreams{}).Quantiles() != nil {
		t.Fatal("empty RunStreams must yield nil quantiles")
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLWriter(&buf)
	j.Record(Sample{At: sim.Time(1500 * sim.Millisecond), Kind: Delay, Value: 0.015625})
	j.Record(Sample{At: sim.Time(2 * sim.Second), Kind: Dropped, Value: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	var rec struct {
		T    float64 `json:"t_s"`
		Kind string  `json:"kind"`
		V    float64 `json:"v"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
	if rec.T != 1.5 || rec.Kind != "delay" || rec.V != 0.015625 {
		t.Fatalf("decoded %+v", rec)
	}
}

func TestCapture(t *testing.T) {
	var c Capture
	c.Record(Sample{Kind: Originated, Value: 1})
	if len(c.Samples) != 1 || c.Samples[0].Kind != Originated {
		t.Fatalf("captured %+v", c.Samples)
	}
}
