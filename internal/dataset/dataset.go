// Package dataset defines the data model shared by every miner and
// classifier in this repository: real-valued gene expression matrices
// (rows are clinical samples, columns are genes) and their discretized
// form, where each gene expression interval becomes an item and each row
// becomes an itemset with a class label.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/bitset"
)

// Label identifies a class. The paper's datasets are binary: by
// convention label 0 is "class 1" in the paper's tables (the specified
// consequent) and label 1 is "class 0".
type Label int

// Matrix is a real-valued gene expression profile: Values[r][g] is the
// expression level of gene g in sample r.
type Matrix struct {
	GeneNames  []string
	Values     [][]float64
	Labels     []Label
	ClassNames []string
}

// NumRows returns the number of samples.
func (m *Matrix) NumRows() int { return len(m.Values) }

// NumGenes returns the number of genes (columns).
func (m *Matrix) NumGenes() int { return len(m.GeneNames) }

// Validate checks structural invariants and returns a descriptive error
// for malformed matrices.
func (m *Matrix) Validate() error {
	if len(m.Values) != len(m.Labels) {
		return fmt.Errorf("dataset: %d value rows but %d labels", len(m.Values), len(m.Labels))
	}
	for r, row := range m.Values {
		if len(row) != len(m.GeneNames) {
			return fmt.Errorf("dataset: row %d has %d values, want %d", r, len(row), len(m.GeneNames))
		}
		for g, v := range row {
			if math.IsNaN(v) {
				return fmt.Errorf("dataset: NaN at row %d gene %d", r, g)
			}
		}
	}
	for r, l := range m.Labels {
		if int(l) < 0 || int(l) >= len(m.ClassNames) {
			return fmt.Errorf("dataset: row %d has label %d outside [0,%d)", r, l, len(m.ClassNames))
		}
	}
	if len(m.ClassNames) < 2 {
		return fmt.Errorf("dataset: need at least 2 classes, have %d", len(m.ClassNames))
	}
	return nil
}

// ClassCount returns the number of rows labelled l.
func (m *Matrix) ClassCount(l Label) int {
	c := 0
	for _, x := range m.Labels {
		if x == l {
			c++
		}
	}
	return c
}

// Column returns a copy of gene g's expression values across all rows.
func (m *Matrix) Column(g int) []float64 {
	col := make([]float64, len(m.Values))
	for r, row := range m.Values {
		col[r] = row[g]
	}
	return col
}

// SelectGenes returns a new matrix restricted to the given gene indices
// (in the given order). Values are copied.
func (m *Matrix) SelectGenes(genes []int) *Matrix {
	sel := &Matrix{
		GeneNames:  make([]string, len(genes)),
		Values:     make([][]float64, len(m.Values)),
		Labels:     append([]Label(nil), m.Labels...),
		ClassNames: append([]string(nil), m.ClassNames...),
	}
	for j, g := range genes {
		sel.GeneNames[j] = m.GeneNames[g]
	}
	for r, row := range m.Values {
		nr := make([]float64, len(genes))
		for j, g := range genes {
			nr[j] = row[g]
		}
		sel.Values[r] = nr
	}
	return sel
}

// Item is one gene expression interval. Lo is inclusive, Hi exclusive;
// ±Inf mark unbounded ends. An item reads as gene[Lo,Hi).
type Item struct {
	Gene     int     // index into the originating matrix's genes
	GeneName string  // carried for reporting
	Lo, Hi   float64 // half-open interval [Lo, Hi)
}

// Matches reports whether expression value v falls in the item's interval.
func (it Item) Matches(v float64) bool { return v >= it.Lo && v < it.Hi }

// String renders the item in the paper's gene[a,b] notation.
func (it Item) String() string {
	lo, hi := "-inf", "+inf"
	if !math.IsInf(it.Lo, -1) {
		lo = fmt.Sprintf("%g", it.Lo)
	}
	if !math.IsInf(it.Hi, 1) {
		hi = fmt.Sprintf("%g", it.Hi)
	}
	return fmt.Sprintf("%s[%s,%s)", it.GeneName, lo, hi)
}

// MaxItems caps the item universe of a model envelope or an inline
// dataset arriving from outside the process, so a declared size or an
// item id cannot make a loader allocate without bound. A row bitset
// over it is 128 KiB; OC, the widest paper profile, has 15,154 genes.
const MaxItems = 1 << 20

// Dataset is a discretized table: each row is a sorted set of item ids
// plus a class label. It is the input to all rule miners.
type Dataset struct {
	Items      []Item
	Rows       [][]int // sorted ascending item ids
	Labels     []Label
	ClassNames []string

	// itemRows[i] is the set of rows containing item i, built once on
	// first use by buildIndex; indexOnce makes that first use safe from
	// concurrent goroutines (jobs sharing one dataset).
	indexOnce sync.Once
	itemRows  []*bitset.Set
}

// NumRows returns the number of rows (samples).
func (d *Dataset) NumRows() int { return len(d.Rows) }

// NumItems returns the number of distinct items.
func (d *Dataset) NumItems() int { return len(d.Items) }

// NumClasses returns the number of classes.
func (d *Dataset) NumClasses() int { return len(d.ClassNames) }

// Validate checks structural invariants.
func (d *Dataset) Validate() error {
	if len(d.Rows) != len(d.Labels) {
		return fmt.Errorf("dataset: %d rows but %d labels", len(d.Rows), len(d.Labels))
	}
	for r, row := range d.Rows {
		if !sort.IntsAreSorted(row) {
			return fmt.Errorf("dataset: row %d items not sorted", r)
		}
		for j, it := range row {
			if it < 0 || it >= len(d.Items) {
				return fmt.Errorf("dataset: row %d references item %d outside [0,%d)", r, it, len(d.Items))
			}
			if j > 0 && row[j-1] == it {
				return fmt.Errorf("dataset: row %d has duplicate item %d", r, it)
			}
		}
	}
	for r, l := range d.Labels {
		if int(l) < 0 || int(l) >= len(d.ClassNames) {
			return fmt.Errorf("dataset: row %d label %d outside [0,%d)", r, l, len(d.ClassNames))
		}
	}
	if len(d.ClassNames) < 2 {
		return fmt.Errorf("dataset: need at least 2 classes, have %d", len(d.ClassNames))
	}
	return nil
}

// buildIndex populates the item→rows inverted index.
func (d *Dataset) buildIndex() {
	d.itemRows = make([]*bitset.Set, len(d.Items))
	for i := range d.Items {
		d.itemRows[i] = bitset.New(len(d.Rows))
	}
	for r, row := range d.Rows {
		for _, it := range row {
			d.itemRows[it].Add(r)
		}
	}
}

// ItemRows returns the set of rows containing item i (the item support
// set R({i})). The returned set is shared; callers must not mutate it.
// It is safe for concurrent use: the first call builds the index.
func (d *Dataset) ItemRows(i int) *bitset.Set {
	d.indexOnce.Do(d.buildIndex)
	return d.itemRows[i]
}

// ItemSupport returns |R({i})|.
func (d *Dataset) ItemSupport(i int) int { return d.ItemRows(i).Count() }

// RowSet returns a fresh bitset over rows containing exactly the rows
// whose label is l.
func (d *Dataset) RowSet(l Label) *bitset.Set {
	s := bitset.New(len(d.Rows))
	for r, x := range d.Labels {
		if x == l {
			s.Add(r)
		}
	}
	return s
}

// ClassCount returns the number of rows labelled l.
func (d *Dataset) ClassCount(l Label) int {
	c := 0
	for _, x := range d.Labels {
		if x == l {
			c++
		}
	}
	return c
}

// RowItemSet returns row r's items as a bitset over the item universe.
func (d *Dataset) RowItemSet(r int) *bitset.Set {
	s := bitset.New(len(d.Items))
	for _, it := range d.Rows[r] {
		s.Add(it)
	}
	return s
}

// RowItemSetInto overwrites s (a set over the item universe) with row
// r's items — the reusable-scratch form of RowItemSet prediction loops
// use to stay allocation-free across rows.
//
//vet:allocfree
func (d *Dataset) RowItemSetInto(r int, s *bitset.Set) {
	s.Clear()
	for _, it := range d.Rows[r] {
		s.Add(it)
	}
}

// SupportSet returns R(A): the set of rows containing every item in A.
// A nil or empty A yields all rows.
func (d *Dataset) SupportSet(items []int) *bitset.Set {
	s := bitset.New(len(d.Rows))
	s.Fill()
	for _, it := range items {
		s.IntersectWith(d.ItemRows(it))
	}
	return s
}

// CommonItems returns I(R'): the largest itemset common to every row in
// rows. An empty row set yields all items.
func (d *Dataset) CommonItems(rows *bitset.Set) []int {
	var out []int
	for i := range d.Items {
		if d.ItemRows(i).ContainsAll(rows) {
			out = append(out, i)
		}
	}
	return out
}

// Subset returns a new dataset containing only the given rows (in the
// given order). The item table is shared; the inverted index is rebuilt
// lazily for the subset.
func (d *Dataset) Subset(rows []int) *Dataset {
	sub := &Dataset{
		Items:      d.Items,
		Rows:       make([][]int, len(rows)),
		Labels:     make([]Label, len(rows)),
		ClassNames: d.ClassNames,
	}
	for i, r := range rows {
		sub.Rows[i] = append([]int(nil), d.Rows[r]...)
		sub.Labels[i] = d.Labels[r]
	}
	return sub
}

// Reorder returns a new dataset with rows permuted according to perm:
// new row i is old row perm[i].
func (d *Dataset) Reorder(perm []int) *Dataset {
	if len(perm) != len(d.Rows) {
		// vetsuite:allow panic -- programmer-error precondition, not data-dependent
		panic(fmt.Sprintf("dataset: permutation length %d != %d rows", len(perm), len(d.Rows)))
	}
	return d.Subset(perm)
}

// FilterItems returns a new dataset keeping only items for which keep
// returns true, with item ids compacted. The second return value maps
// new item ids to old ones.
func (d *Dataset) FilterItems(keep func(item int) bool) (*Dataset, []int) {
	oldToNew := make([]int, len(d.Items))
	var newToOld []int
	var items []Item
	for i := range d.Items {
		if keep(i) {
			oldToNew[i] = len(items)
			items = append(items, d.Items[i])
			newToOld = append(newToOld, i)
		} else {
			oldToNew[i] = -1
		}
	}
	nd := &Dataset{
		Items:      items,
		Rows:       make([][]int, len(d.Rows)),
		Labels:     append([]Label(nil), d.Labels...),
		ClassNames: d.ClassNames,
	}
	for r, row := range d.Rows {
		var nr []int
		for _, it := range row {
			if oldToNew[it] >= 0 {
				nr = append(nr, oldToNew[it])
			}
		}
		nd.Rows[r] = nr
	}
	return nd, newToOld
}

// ItemNames renders a slice of item ids in the paper's notation.
func (d *Dataset) ItemNames(items []int) []string {
	out := make([]string, len(items))
	for j, it := range items {
		out[j] = d.Items[it].String()
	}
	return out
}
