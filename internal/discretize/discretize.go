// Package discretize implements entropy-minimized discretization of
// real-valued gene expression matrices with the Fayyad–Irani MDL
// stopping criterion — the same algorithm behind the MLC++ "entropy"
// partition the paper uses. Genes for which MDL accepts no cut point
// carry no class information and are dropped, so discretization doubles
// as feature selection ("# Genes after Discretization" in Table 1).
package discretize

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Discretizer holds per-gene cut points learned from a training matrix
// and converts matrices into discretized item datasets. Cut points for
// gene g are Cuts[g], sorted ascending; an empty slice means the gene
// was rejected by the MDL criterion and produces no items.
type Discretizer struct {
	Cuts       [][]float64
	GeneNames  []string
	ClassNames []string

	items     []dataset.Item
	itemStart []int // first item id of each gene; -1 for dropped genes
}

// FitMatrix learns MDL-accepted cut points for every gene of m.
func FitMatrix(m *dataset.Matrix) (*Discretizer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dz := &Discretizer{
		Cuts:       make([][]float64, m.NumGenes()),
		GeneNames:  append([]string(nil), m.GeneNames...),
		ClassNames: append([]string(nil), m.ClassNames...),
	}
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
		stats.SortLabeledValues(vs)
		var cuts []float64
		mdlPartition(vs, k, &cuts)
		sort.Float64s(cuts)
		dz.Cuts[g] = cuts
	}
	dz.buildItems()
	return dz, nil
}

// mdlPartition recursively splits the sorted labeled values, appending
// accepted cut points.
func mdlPartition(vs []stats.LabeledValue, numClasses int, cuts *[]float64) {
	cut, gain, ok := stats.BestBinarySplit(vs, numClasses)
	if !ok {
		return
	}
	// Locate the boundary index: first element with value > cut.
	b := sort.Search(len(vs), func(i int) bool { return vs[i].Value > cut })
	left, right := vs[:b], vs[b:]
	if !mdlAccepts(vs, left, right, gain) {
		return
	}
	*cuts = append(*cuts, cut)
	mdlPartition(left, numClasses, cuts)
	mdlPartition(right, numClasses, cuts)
}

// mdlAccepts applies the Fayyad–Irani MDLPC criterion:
//
//	Gain(S;T) > log2(N-1)/N + Δ(S;T)/N
//	Δ(S;T) = log2(3^k - 2) - [k·H(S) - k1·H(S1) - k2·H(S2)]
//
// where k, k1, k2 are the numbers of distinct classes present in S, S1,
// S2.
func mdlAccepts(s, s1, s2 []stats.LabeledValue, gain float64) bool {
	n := float64(len(s))
	if n < 2 {
		return false
	}
	k := float64(distinctClasses(s))
	k1 := float64(distinctClasses(s1))
	k2 := float64(distinctClasses(s2))
	h := entropyOf(s)
	h1 := entropyOf(s1)
	h2 := entropyOf(s2)
	delta := math.Log2(math.Pow(3, k)-2) - (k*h - k1*h1 - k2*h2)
	threshold := (math.Log2(n-1) + delta) / n
	return gain > threshold
}

func distinctClasses(vs []stats.LabeledValue) int {
	seen := map[int]bool{}
	for _, v := range vs {
		seen[v.Label] = true
	}
	return len(seen)
}

func entropyOf(vs []stats.LabeledValue) float64 {
	counts := map[int]int{}
	for _, v := range vs {
		counts[v.Label]++
	}
	flat := make([]int, 0, len(counts))
	for _, c := range counts {
		flat = append(flat, c)
	}
	return stats.Entropy(flat)
}

// buildItems enumerates the item table: one item per interval of each
// retained gene, in gene order.
func (dz *Discretizer) buildItems() {
	dz.items = nil
	dz.itemStart = make([]int, len(dz.Cuts))
	for g, cuts := range dz.Cuts {
		if len(cuts) == 0 {
			dz.itemStart[g] = -1
			continue
		}
		dz.itemStart[g] = len(dz.items)
		bounds := append([]float64{math.Inf(-1)}, cuts...)
		bounds = append(bounds, math.Inf(1))
		for i := 0; i+1 < len(bounds); i++ {
			dz.items = append(dz.items, dataset.Item{
				Gene:     g,
				GeneName: dz.GeneNames[g],
				Lo:       bounds[i],
				Hi:       bounds[i+1],
			})
		}
	}
}

// NumSelectedGenes returns how many genes survived discretization.
func (dz *Discretizer) NumSelectedGenes() int {
	n := 0
	for _, c := range dz.Cuts {
		if len(c) > 0 {
			n++
		}
	}
	return n
}

// SelectedGenes returns the indices of genes with at least one cut.
func (dz *Discretizer) SelectedGenes() []int {
	var out []int
	for g, c := range dz.Cuts {
		if len(c) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// NumItems returns the total number of items produced.
func (dz *Discretizer) NumItems() int { return len(dz.items) }

// itemFor returns the item id for gene g at value v, or -1 when the gene
// was dropped.
func (dz *Discretizer) itemFor(g int, v float64) int {
	start := dz.itemStart[g]
	if start < 0 {
		return -1
	}
	cuts := dz.Cuts[g]
	// Interval index = count of cuts <= v.
	idx := sort.SearchFloat64s(cuts, v)
	// SearchFloat64s returns the first i with cuts[i] >= v; a value equal
	// to a cut belongs to the right interval ([Lo,Hi) semantics).
	if idx < len(cuts) && cuts[idx] == v {
		idx++
	}
	return start + idx
}

// RowItems maps one raw expression row (one value per gene) to its
// item ids under the learned cut points. Genes rejected by MDL yield no
// item; extra or missing values beyond the fitted gene count are
// ignored.
func (dz *Discretizer) RowItems(values []float64) []int {
	out := make([]int, 0, dz.NumSelectedGenes())
	n := len(values)
	if n > len(dz.Cuts) {
		n = len(dz.Cuts)
	}
	for g := 0; g < n; g++ {
		if it := dz.itemFor(g, values[g]); it >= 0 {
			out = append(out, it)
		}
	}
	return out
}

// Transform converts a matrix into a discretized dataset using the
// learned cut points. The matrix must have the same gene schema as the
// training matrix.
func (dz *Discretizer) Transform(m *dataset.Matrix) (*dataset.Dataset, error) {
	if len(m.GeneNames) != len(dz.GeneNames) {
		return nil, fmt.Errorf("discretize: matrix has %d genes, discretizer fitted on %d", len(m.GeneNames), len(dz.GeneNames))
	}
	d := &dataset.Dataset{
		Items:      dz.items,
		Rows:       make([][]int, m.NumRows()),
		Labels:     append([]dataset.Label(nil), m.Labels...),
		ClassNames: append([]string(nil), dz.ClassNames...),
	}
	for r, row := range m.Values {
		items := make([]int, 0, dz.NumSelectedGenes())
		for g, v := range row {
			if it := dz.itemFor(g, v); it >= 0 {
				items = append(items, it)
			}
		}
		d.Rows[r] = items // gene order is ascending, so items are sorted
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
