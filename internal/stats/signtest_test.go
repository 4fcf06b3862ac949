package stats

import (
	"fmt"
	"math"
	"testing"
)

// TestSignTest checks the one-sided sign test against exact fractions:
// k of 16 is (Σ_{i≥k} C(16, i)) / 2¹⁶, which prints as the values ROADMAP
// quotes for 13, 14 and 16 of 16 seeds.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		exact        float64
		printed      string
	}{
		{13, 3, (560 + 120 + 16 + 1) / 65536.0, "0.011"},
		{14, 2, (120 + 16 + 1) / 65536.0, "0.0021"},
		{16, 0, 1 / 65536.0, "1.5e-05"},
		{9, 1, 11 / 1024.0, "0.011"},
		{10, 0, 1 / 1024.0, "0.00098"},
		{5, 5, 638 / 1024.0, "0.62"},
		{0, 4, 1, "1"},
		{0, 0, 1, "1"},
	} {
		got := SignTest(tc.wins, tc.losses)
		if math.Abs(got-tc.exact) > 1e-12*tc.exact {
			t.Errorf("SignTest(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.exact)
		}
		if s := fmt.Sprintf("%.2g", got); s != tc.printed {
			t.Errorf("SignTest(%d, %d) prints %s, want %s", tc.wins, tc.losses, s, tc.printed)
		}
	}
}

// TestBinomialTail checks every tail of a few (n, p) against a direct sum
// of C(n, i)·pⁱ·(1−p)ⁿ⁻ⁱ, and the edges of k and p.
func TestBinomialTail(t *testing.T) {
	for _, n := range []int{1, 7, 30} {
		for _, p := range []float64{0.1, 0.5, 0.83} {
			for k := 0; k <= n+1; k++ {
				var want float64
				for i := k; i <= n; i++ {
					c := 1.0
					for j := 0; j < i; j++ {
						c = c * float64(n-j) / float64(j+1)
					}
					want += c * math.Pow(p, float64(i)) * math.Pow(1-p, float64(n-i))
				}
				if got := BinomialTail(k, n, p); math.Abs(got-want) > 1e-12 {
					t.Errorf("BinomialTail(%d, %d, %v) = %v, want %v", k, n, p, got, want)
				}
			}
		}
	}
	for _, tc := range []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 5, 0, 1}, {1, 5, 0, 0}, {5, 5, 1, 1}, {6, 5, 1, 0}, {-1, 5, 0.5, 1},
	} {
		if got := BinomialTail(tc.k, tc.n, tc.p); got != tc.want {
			t.Errorf("BinomialTail(%d, %d, %v) = %v, want %v", tc.k, tc.n, tc.p, got, tc.want)
		}
	}
}
