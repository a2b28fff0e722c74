package benchmark

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads computed here match the ones an outside check computes.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the distance between the quartiles of xs as a share of
// their median: the run-to-run noise measure every bound is set
// against.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
