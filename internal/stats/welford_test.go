package stats

import (
	"math"
	"testing"
)

func TestWelfordKnownSample(t *testing.T) {
	// Sample {10,12,14,16,18}: mean 14, sample stddev √10 ≈ 3.1623,
	// t(4) = 2.776 → CI half-width 2.776·√10/√5 ≈ 3.926.
	var w Welford
	for _, x := range []float64{10, 12, 14, 16, 18} {
		w.Add(x)
	}
	if s := w.Summary(); s.N != 5 || s.Min != 10 || s.Max != 18 {
		t.Fatalf("welford = %+v", s)
	}
	if math.Abs(w.Mean()-14) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-10) > 1e-12 {
		t.Fatalf("variance = %v", w.Variance())
	}
	wantCI := 2.776 * math.Sqrt(10) / math.Sqrt(5)
	if math.Abs(w.CI95()-wantCI) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", w.CI95(), wantCI)
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	xs := []float64{3.5, -1.25, 0, 7.75, 2.25, 100.5, -42, 13}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	s, batch := w.Summary(), Summarize(xs)
	if s.N != batch.N || s.Min != batch.Min || s.Max != batch.Max {
		t.Fatalf("summary = %+v vs %+v", s, batch)
	}
	if math.Abs(s.Mean-batch.Mean) > 1e-12 ||
		math.Abs(s.StdDev-batch.StdDev) > 1e-9 ||
		math.Abs(s.CI95-batch.CI95) > 1e-9 {
		t.Fatalf("streaming %+v != batch %+v", s, batch)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Summary() != (Summary{}) {
		t.Fatalf("zero value = %+v", w.Summary())
	}
	w.Add(42)
	if s := w.Summary(); s != (Summary{N: 1, Mean: 42, Min: 42, Max: 42}) {
		t.Fatalf("single sample = %+v", w.Summary())
	}
}

func TestWelfordDeterministicReplay(t *testing.T) {
	// Identical sequences must yield bit-identical state: campaign resume
	// replays journaled values through a fresh accumulator and requires
	// reflect.DeepEqual aggregates.
	xs := []float64{0.1, 0.2, 0.30000000000000004, 1e-17, -5, 3.25}
	var a, b Welford
	for _, x := range xs {
		a.Add(x)
	}
	for _, x := range xs {
		b.Add(x)
	}
	if a != b {
		t.Fatalf("replayed state differs: %+v vs %+v", a, b)
	}
}

func TestT95TableBoundary(t *testing.T) {
	// df=1 (n=2) is the widest quantile; the table runs through df=30 and
	// hands over to the normal approximation at df=31.
	if ci := ci95(2, 1); math.Abs(ci-12.706/math.Sqrt(2)) > 1e-9 {
		t.Fatalf("n=2 CI = %v", ci)
	}
	if ci := ci95(31, 1); math.Abs(ci-2.042/math.Sqrt(31)) > 1e-9 {
		t.Fatalf("n=31 (df=30) CI = %v", ci)
	}
	if ci := ci95(32, 1); math.Abs(ci-1.96/math.Sqrt(32)) > 1e-9 {
		t.Fatalf("n=32 (df=31) CI = %v", ci)
	}
}
