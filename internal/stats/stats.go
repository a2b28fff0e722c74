// Package stats provides the information-theoretic and statistical
// scores the paper relies on: class entropy, information gain of binary
// splits (used by entropy discretization, C4.5, and FindLB's item
// ranking), and chi-square association (used by the Figure 8 gene-rank
// analysis).
package stats

import (
	"math"
	"slices"
	"sort"
)

// Entropy returns the Shannon entropy (base 2) of a label count vector.
// Zero counts contribute nothing; an empty or all-zero vector has
// entropy 0.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// LabeledValue pairs one sample's value for a single gene with its class.
type LabeledValue struct {
	Value float64
	Label int
}

// SortLabeledValues sorts in ascending (Value, Label) order. The sort
// is not stable, and need not be: two elements that compare equal have
// the same label and equal values, and the only equal values with
// different bits, -0 and +0, never form a split boundary and give the
// same midpoint whichever of them sorts first.
func SortLabeledValues(vs []LabeledValue) {
	slices.SortFunc(vs, func(a, b LabeledValue) int {
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return a.Label - b.Label
	})
}

// BestBinarySplit finds the cut point of a sorted labeled sequence that
// minimizes the weighted entropy of the induced two-block partition.
// Candidate boundaries lie between adjacent distinct values a < b; the
// cut is their midpoint when it lies in (a, b], and b when the midpoint
// rounds down to a or overflows. Either way the values below the cut
// are exactly those up to a. It returns the cut value, the information
// gain of the split, and ok = false when no valid cut exists (all values
// identical or fewer than two samples). vs must be sorted ascending by
// value.
func BestBinarySplit(vs []LabeledValue, numClasses int) (cut float64, gain float64, ok bool) {
	n := len(vs)
	if n < 2 {
		return 0, 0, false
	}
	counts := make([]int, 3*numClasses)
	totalCounts := counts[:numClasses]
	leftCounts := counts[numClasses : 2*numClasses]
	rightCounts := counts[2*numClasses:]
	for _, v := range vs {
		totalCounts[v.Label]++
	}
	baseH := Entropy(totalCounts)

	bestGain := math.Inf(-1)
	best := -1
	for i := 0; i < n-1; i++ {
		leftCounts[vs[i].Label]++
		if vs[i].Value == vs[i+1].Value {
			continue // not a boundary between distinct values
		}
		for c := range rightCounts {
			rightCounts[c] = totalCounts[c] - leftCounts[c]
		}
		w := float64(i+1)/float64(n)*Entropy(leftCounts) +
			float64(n-i-1)/float64(n)*Entropy(rightCounts)
		g := baseH - w
		if g > bestGain {
			bestGain = g
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	a, b := vs[best].Value, vs[best+1].Value
	cut = (a + b) / 2
	if !(cut > a && cut <= b) {
		cut = b
	}
	return cut, bestGain, true
}

// EntropyScore is the discriminant ability of a gene measured as the
// information gain of its best binary split against the class labels —
// the score [3] that FindLB uses to rank items. Higher is more
// discriminant. A gene whose values cannot be split scores 0.
func EntropyScore(values []float64, labels []int, numClasses int) float64 {
	vs := make([]LabeledValue, len(values))
	for i := range values {
		vs[i] = LabeledValue{Value: values[i], Label: labels[i]}
	}
	SortLabeledValues(vs)
	_, gain, ok := BestBinarySplit(vs, numClasses)
	if !ok {
		return 0
	}
	return gain
}

// ChiSquare returns the chi-square statistic of a contingency table
// table[i][j] = count of (attribute value i, class j). Cells with zero
// expected count contribute nothing.
func ChiSquare(table [][]int) float64 {
	if len(table) == 0 {
		return 0
	}
	rows := len(table)
	cols := len(table[0])
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	total := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := float64(table[i][j])
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	chi := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			exp := rowSum[i] * colSum[j] / total
			if exp == 0 {
				continue
			}
			d := float64(table[i][j]) - exp
			chi += d * d / exp
		}
	}
	return chi
}

// ChiSquareBinary returns the chi-square statistic of a presence/absence
// attribute against a binary class, given the four cell counts:
// a = present & positive, b = present & negative,
// c = absent & positive, d = absent & negative.
func ChiSquareBinary(a, b, c, d int) float64 {
	return ChiSquare([][]int{{a, b}, {c, d}})
}

// Rank assigns dense ranks (1 = best) to scores sorted descending. Ties
// share the smallest rank of the tied block. The returned slice is
// parallel to scores.
func Rank(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	ranks := make([]int, len(scores))
	for pos, i := range idx {
		// vetsuite:allow floatcmp -- dense ranking ties on bit-identical scores; stats stays free of the rules package
		if pos > 0 && scores[i] == scores[idx[pos-1]] {
			ranks[i] = ranks[idx[pos-1]]
		} else {
			ranks[i] = pos + 1
		}
	}
	return ranks
}
