package stats

import "math"

// BinomialTail returns P(X ≥ k) for X ~ Binomial(n, p): the exact tail,
// summed term by term, not a normal approximation. The first term,
// C(n, k)·pᵏ·(1−p)ⁿ⁻ᵏ, comes from log-gamma; each next one is the previous
// times (n−i)/(i+1)·p/(1−p).
func BinomialTail(k, n int, p float64) float64 {
	switch {
	case k > n:
		return 0
	case k <= 0 || p >= 1:
		return 1
	case p <= 0:
		return 0
	}
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x)); return v }
	// Each product is rounded by float64(…) before it feeds a sum, so no
	// CPU fuses the two.
	log := lg(n+1) - lg(k+1) - lg(n-k+1) + float64(float64(k)*math.Log(p)) + float64(float64(n-k)*math.Log1p(-p))
	term := math.Exp(log)
	odds := p / (1 - p)
	sum := term
	for i := k; i < n; i++ {
		term = float64(term * (float64(n-i) / float64(i+1) * odds))
		sum += term
	}
	return min(sum, 1)
}

// SignTest is the exact one-sided sign test: the probability of at least
// wins wins in wins+losses paired comparisons when neither side is better,
// each pair a fair coin. Ties carry no sign and are left out of both
// counts.
func SignTest(wins, losses int) float64 {
	return BinomialTail(wins, wins+losses, 0.5)
}
