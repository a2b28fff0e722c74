// Package discretize implements entropy-minimized discretization of
// real-valued gene expression matrices with the Fayyad–Irani MDL
// stopping criterion — the same algorithm behind the MLC++ "entropy"
// partition the paper uses. Genes for which MDL accepts no cut point
// carry no class information and are dropped, so discretization doubles
// as feature selection ("# Genes after Discretization" in Table 1).
//
// FitMatrix fits genes in parallel on at most GOMAXPROCS goroutines.
// One goroutine fits each gene, so the cut points do not depend on how
// many there are. The cut at a boundary between adjacent training
// values a < b is their midpoint when that lies in (a, b] and b when it
// rounds down to a or overflows. Values below a cut go to its left and
// values at or above it to its right, in the fit as in Transform.
package discretize

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// FitMatrix learns MDL-accepted cut points for every gene of m. It fits
// genes on GOMAXPROCS goroutines at most.
func FitMatrix(m *dataset.Matrix) (*Discretizer, error) {
	return fitMatrix(m, runtime.GOMAXPROCS(0))
}

// fitMatrix is FitMatrix on at most workers goroutines. Each takes gene
// indices from a shared counter and writes only those genes' Cuts, so
// the result does not depend on the worker count.
func fitMatrix(m *dataset.Matrix, workers int) (*Discretizer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dz := &Discretizer{
		Cuts:       make([][]float64, m.NumGenes()),
		GeneNames:  append([]string(nil), m.GeneNames...),
		ClassNames: append([]string(nil), m.ClassNames...),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, m.NumGenes()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newGeneFitter(m)
			for {
				g := int(next.Add(1)) - 1
				if g >= len(dz.Cuts) {
					return
				}
				dz.Cuts[g] = f.fit(g)
			}
		}()
	}
	wg.Wait()
	dz.buildItems()
	return dz, nil
}

// geneFitter holds one goroutine's scratch for fitting genes of m.
type geneFitter struct {
	m      *dataset.Matrix
	vs     []stats.LabeledValue
	counts []int // class counts of a segment, then of its two halves
	cuts   []float64
}

func newGeneFitter(m *dataset.Matrix) *geneFitter {
	k := len(m.ClassNames)
	return &geneFitter{
		m:      m,
		vs:     make([]stats.LabeledValue, m.NumRows()),
		counts: make([]int, 3*k),
	}
}

// fit returns gene g's accepted cut points in ascending order, or nil
// when MDL accepts none.
func (f *geneFitter) fit(g int) []float64 {
	for r, row := range f.m.Values {
		f.vs[r] = stats.LabeledValue{Value: row[g], Label: int(f.m.Labels[r])}
	}
	stats.SortLabeledValues(f.vs)
	f.cuts = f.cuts[:0]
	f.partition(f.vs)
	if len(f.cuts) == 0 {
		return nil
	}
	cuts := slices.Clone(f.cuts)
	slices.Sort(cuts)
	return cuts
}

// partition recursively splits the sorted labeled values, appending
// accepted cut points. Values below a cut go left and values at or
// above it go right, as Transform assigns them.
func (f *geneFitter) partition(vs []stats.LabeledValue) {
	k := len(f.m.ClassNames)
	cut, gain, ok := stats.BestBinarySplit(vs, k)
	if !ok {
		return
	}
	s, s1, s2 := f.counts[:k], f.counts[k:2*k], f.counts[2*k:]
	clear(s1)
	clear(s2)
	b := 0
	for i, v := range vs {
		if v.Value < cut {
			s1[v.Label]++
			b = i + 1
		} else {
			s2[v.Label]++
		}
	}
	for c := range s {
		s[c] = s1[c] + s2[c]
	}
	if gain <= mdlThreshold(s, s1, s2) {
		return
	}
	f.cuts = append(f.cuts, cut)
	f.partition(vs[:b])
	f.partition(vs[b:])
}

// mdlThreshold is the information gain a split of S into S1 and S2 must
// exceed under the Fayyad–Irani MDLPC criterion, given the class counts
// of each part:
//
//	Gain(S;T) > log2(N-1)/N + Δ(S;T)/N
//	Δ(S;T) = log2(3^k - 2) - [k·H(S) - k1·H(S1) - k2·H(S2)]
//
// where k, k1, k2 are the numbers of distinct classes present in S, S1,
// S2. Entropies sum in class-index order, so given counts always give
// the same threshold, bit for bit.
func mdlThreshold(s, s1, s2 []int) float64 {
	n := 0
	for _, c := range s {
		n += c
	}
	k := classesPresent(s)
	k1 := classesPresent(s1)
	k2 := classesPresent(s2)
	h := stats.Entropy(s)
	h1 := stats.Entropy(s1)
	h2 := stats.Entropy(s2)
	delta := math.Log2(math.Pow(3, k)-2) - (k*h - k1*h1 - k2*h2)
	return (math.Log2(float64(n)-1) + delta) / float64(n)
}

// classesPresent counts the nonzero entries of a class count vector.
func classesPresent(counts []int) float64 {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return float64(k)
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
