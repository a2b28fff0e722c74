package discretize

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// referenceFit is the sequential fit that fitMatrix replaced, kept as
// the oracle its cut points must deep-equal. It sorts each gene with a
// reflect-based stable sort, allocates the right-hand class counts at
// every boundary of every split and judges MDL from per-call maps. It
// computes entropies with a copy of its own formula, refEntropy, so a
// change to stats.Entropy cannot change the oracle with it.
//
// Two of its behaviours are known defects that fitMatrix fixes, so the
// oracle tests stay clear of them: a boundary midpoint that rounds up
// to the next value or overflows leaves the whole segment on one side
// and recurses forever, and with three or more classes its entropies
// sum in map iteration order. Every comparison with it runs on
// two-class matrices whose adjacent values have an exact midpoint.

// referenceFit returns the per-gene cut points the replaced fit learned
// from m.
func referenceFit(m *dataset.Matrix) [][]float64 {
	out := make([][]float64, m.NumGenes())
	labels := make([]int, m.NumRows())
	for r, l := range m.Labels {
		labels[r] = int(l)
	}
	k := len(m.ClassNames)
	vs := make([]stats.LabeledValue, m.NumRows())
	for g := 0; g < m.NumGenes(); g++ {
		for r := range m.Values {
			vs[r] = stats.LabeledValue{Value: m.Values[r][g], Label: labels[r]}
		}
		refSortLabeledValues(vs)
		var cuts []float64
		refPartition(vs, k, &cuts)
		sort.Float64s(cuts)
		out[g] = cuts
	}
	return out
}

func refSortLabeledValues(vs []stats.LabeledValue) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Value != vs[j].Value {
			return vs[i].Value < vs[j].Value
		}
		return vs[i].Label < vs[j].Label
	})
}

func refBestBinarySplit(vs []stats.LabeledValue, numClasses int) (cut float64, gain float64, ok bool) {
	n := len(vs)
	if n < 2 {
		return 0, 0, false
	}
	totalCounts := make([]int, numClasses)
	for _, v := range vs {
		totalCounts[v.Label]++
	}
	baseH := refEntropy(totalCounts)

	leftCounts := make([]int, numClasses)
	bestGain := math.Inf(-1)
	bestCut := 0.0
	found := false
	for i := 0; i < n-1; i++ {
		leftCounts[vs[i].Label]++
		if vs[i].Value == vs[i+1].Value {
			continue
		}
		rightCounts := make([]int, numClasses)
		for c := range rightCounts {
			rightCounts[c] = totalCounts[c] - leftCounts[c]
		}
		w := float64(i+1)/float64(n)*refEntropy(leftCounts) +
			float64(n-i-1)/float64(n)*refEntropy(rightCounts)
		g := baseH - w
		if g > bestGain {
			bestGain = g
			bestCut = (vs[i].Value + vs[i+1].Value) / 2
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestCut, bestGain, true
}

func refPartition(vs []stats.LabeledValue, numClasses int, cuts *[]float64) {
	cut, gain, ok := refBestBinarySplit(vs, numClasses)
	if !ok {
		return
	}
	b := sort.Search(len(vs), func(i int) bool { return vs[i].Value > cut })
	left, right := vs[:b], vs[b:]
	if !refMDLAccepts(vs, left, right, gain) {
		return
	}
	*cuts = append(*cuts, cut)
	refPartition(left, numClasses, cuts)
	refPartition(right, numClasses, cuts)
}

func refMDLAccepts(s, s1, s2 []stats.LabeledValue, gain float64) bool {
	n := float64(len(s))
	if n < 2 {
		return false
	}
	k := float64(refDistinctClasses(s))
	k1 := float64(refDistinctClasses(s1))
	k2 := float64(refDistinctClasses(s2))
	h := refEntropyOf(s)
	h1 := refEntropyOf(s1)
	h2 := refEntropyOf(s2)
	delta := math.Log2(math.Pow(3, k)-2) - (k*h - k1*h1 - k2*h2)
	threshold := (math.Log2(n-1) + delta) / n
	return gain > threshold
}

func refDistinctClasses(vs []stats.LabeledValue) int {
	seen := map[int]bool{}
	for _, v := range vs {
		seen[v.Label] = true
	}
	return len(seen)
}

func refEntropyOf(vs []stats.LabeledValue) float64 {
	counts := map[int]int{}
	for _, v := range vs {
		counts[v.Label]++
	}
	flat := make([]int, 0, len(counts))
	for _, c := range counts {
		flat = append(flat, c)
	}
	return refEntropy(flat)
}

// refEntropy is the entropy formula of the replaced fit, term by term,
// kept here so the reference does not follow stats.Entropy. Each
// product is rounded to float64, as stats.Entropy's terms are; on a
// target that does not fuse multiply-add, such as amd64, that is the
// formula's own rounding.
func refEntropy(counts []int) float64 {
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
		h -= float64(p * math.Log2(p))
	}
	return h
}
