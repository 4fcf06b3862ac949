package stats

import "math"

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm) with min/max tracking, for aggregating a metric across
// replication runs without keeping the sample. The zero value is ready to
// use.
//
// Determinism: feeding the same observations in the same order reproduces
// bit-identical state (the update is a fixed sequence of float64 operations),
// which the campaign engine relies on for checkpoint/resume equivalence.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add feeds one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean)) // rounded: no fused multiply-add
}

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n−1 denominator); 0 for n < 2.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation; 0 for n < 2.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the 95% confidence interval for the mean
// (Student-t); 0 for n < 2.
func (w *Welford) CI95() float64 { return ci95(w.n, w.StdDev()) }

// Summary materializes the accumulator into a Summary, including the 95%
// confidence half-width.
func (w *Welford) Summary() Summary {
	return Summary{
		N:      w.n,
		Mean:   w.mean,
		StdDev: w.StdDev(),
		Min:    w.min,
		Max:    w.max,
		CI95:   w.CI95(),
	}
}
