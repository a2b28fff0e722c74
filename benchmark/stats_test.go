package benchmark

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// TestQuartiles pins the outputs of Python's statistics.quantiles(xs,
// n=4), which outside checks of the benchmark's spread use.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3 := Quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("Spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64{7, 3}, 50); got != 3 {
		t.Errorf("Percentile([7 3], 50) = %v, want the nearest rank 3", got)
	}
}
