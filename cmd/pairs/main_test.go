package main

import (
	"path/filepath"
	"testing"
)

// TestDirection reads each metric's direction from the repository's
// BENCHMARK.json and refuses a metric it does not declare.
func TestDirection(t *testing.T) {
	root := filepath.Join("..", "..")
	for metric, want := range map[string]bool{"cached_units_per_s": true, "run_s": false, "allocs_per_run": false, "dist.sse_events": true} {
		if higher, err := direction(root, metric); err != nil || higher != want {
			t.Errorf("direction(%q) = %v, %v; want %v", metric, higher, err, want)
		}
	}
	if _, err := direction(root, "no_such_metric"); err == nil {
		t.Error("an undeclared metric has a direction")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestFirstDiff(t *testing.T) {
	if d := firstDiff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Errorf("equal outputs differ: %q", d)
	}
	if d, want := firstDiff([]byte("a\nb\n"), []byte("a\nc\n")), "  line 2\n  - b\n  + c\n"; d != want {
		t.Errorf("firstDiff = %q, want %q", d, want)
	}
	if d, want := firstDiff([]byte("a\n"), []byte("a\nb\n")), "  line 2\n  - \n  + b\n"; d != want {
		t.Errorf("firstDiff of a longer output = %q, want %q", d, want)
	}
}
