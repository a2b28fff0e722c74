package bitset

import (
	"fmt"
	"math/bits"
)

// ColumnView is the rule-major transposed view of a batch of rows,
// stored block-major: for each 64-item word group and each 64-row
// block, the 64 column words produced by transpose64 stay exactly
// where the transpose wrote them, and a column is addressed as a
// strided walk over the block sections.
//
// Only word groups containing referenced items (the set passed to
// NewColumnView) are materialized; a model whose rules touch 100 of
// 2000 items pays for the groups those 100 items occupy, not for the
// whole universe.
//
// The companion kernel MatchRows fuses the whole per-rule sweep of the
// batch classifier — mask ∧ antecedent columns, union into the matched
// accumulator, and score scatter-add — into one pass over the row
// words, so the sweep touches each word once.
//
// A ColumnView is not safe for concurrent use.
type ColumnView struct {
	numItems  int
	gIdx      []int32 // per group: compacted live index, or -1
	live      []int32 // live group ids in ascending order
	capBlocks int
	rows      int      // rows of the last Build
	words     []uint64 // len(live) × capBlocks × 64, block-major
}

// NewColumnView prepares a view over an item universe of numItems in
// which only the groups covering `items` (the referenced items, a set
// over the same universe) are materialized. Row capacity starts at
// zero and grows on first Build; call Grow to pre-size.
func NewColumnView(numItems int, items *Set) *ColumnView {
	if items.n != numItems {
		panic(fmt.Sprintf("bitset: referenced-item universe %d != %d", items.n, numItems))
	}
	v := &ColumnView{numItems: numItems}
	groups := (numItems + wordBits - 1) / wordBits
	v.gIdx = make([]int32, groups)
	for g := 0; g < groups; g++ {
		if g < len(items.words) && items.words[g] != 0 {
			v.gIdx[g] = int32(len(v.live))
			v.live = append(v.live, int32(g))
		} else {
			v.gIdx[g] = -1
		}
	}
	return v
}

// Rows returns the batch size of the last Build.
func (v *ColumnView) Rows() int { return v.rows }

// Grow ensures the view holds batches of up to n rows. Growing
// invalidates every previously issued ColumnBase.
func (v *ColumnView) Grow(n int) {
	blocks := (n + wordBits - 1) / wordBits
	if blocks <= v.capBlocks {
		return
	}
	v.capBlocks = blocks
	v.words = make([]uint64, len(v.live)*blocks*wordBits)
}

// ColumnBase returns the sweep base of the given item's column for use
// with MatchRows: word i of the column lives at base + 64·i. Bases
// depend on the current capacity — re-derive them after any Grow. The
// item must lie in a materialized group.
func (v *ColumnView) ColumnBase(item int) int32 {
	if item < 0 || item >= v.numItems {
		panic(fmt.Sprintf("bitset: item %d out of range [0,%d)", item, v.numItems))
	}
	gi := v.gIdx[item/wordBits]
	if gi < 0 {
		panic(fmt.Sprintf("bitset: item %d is in an unmaterialized group", item))
	}
	// Build loads rows reversed for transpose64's MSB-first convention,
	// so column c of a group sits at slot 63-c of each block section.
	return int32(int(gi)*v.capBlocks*wordBits + (wordBits - 1 - item%wordBits))
}

// Build replaces the view's contents with the transpose of rows: after
// the call, the column of item i holds exactly the row indices r whose
// set rows[r] contains i, for every item in a materialized group.
// Every row's universe must hold the view's numItems elements.
//
//vet:allocfree
func (v *ColumnView) Build(rows []*Set) {
	n := len(rows)
	for _, row := range rows {
		if row.n < v.numItems {
			panic(fmt.Sprintf("bitset: row universe %d smaller than %d items", row.n, v.numItems))
		}
	}
	v.Grow(n) // vetsuite:allow allocfree -- one-time capacity growth; steady-state batches take the fast path
	v.rows = n
	blocks := (n + wordBits - 1) / wordBits
	for b := 0; b < blocks; b++ {
		lo := b * wordBits
		cnt := n - lo
		if cnt > wordBits {
			cnt = wordBits
		}
		// Gather each row's words for every live group in one pass, so
		// a row's header is chased once per block. Sections of
		// consecutive live groups sit a fixed stride apart, so the
		// destination index is a running offset — no multiply per
		// store. transpose64 is a true transpose in MSB-first
		// convention; reversing both the load and the read-out order
		// converts it to LSB-first.
		stride := v.capBlocks * wordBits
		for j := 0; j < cnt; j++ {
			w := rows[lo+j].words
			off := b*wordBits + wordBits - 1 - j
			for _, g := range v.live {
				v.words[off] = w[g]
				off += stride
			}
		}
		for j := cnt; j < wordBits; j++ {
			off := b*wordBits + wordBits - 1 - j
			for range v.live {
				v.words[off] = 0
				off += stride
			}
		}
		for gi := range v.live {
			off := (gi*v.capBlocks + b) * wordBits
			transpose64((*[wordBits]uint64)(v.words[off : off+wordBits]))
		}
	}
}

// MatchRows evaluates one rule against the whole batch in a single
// fused pass: for each 64-row word, it ANDs the mask word with the
// rule's antecedent columns (bases from ColumnBase), ORs the surviving
// rows into acc, and adds delta to vals[r] for each surviving row r.
// The mask must contain no rows ≥ Rows() (the batch classifier's
// undecided set satisfies this by construction), and acc and vals must
// cover Rows() rows. An empty bases list means an empty antecedent:
// every mask row survives.
//
// Word-level early exit makes sparse masks nearly free: once most rows
// are decided, a sub-classifier's rules skip every all-zero mask word.
//
//vet:allocfree
func (v *ColumnView) MatchRows(mask *Set, bases []int32, acc *Set, vals []float64, delta float64) {
	nb := (v.rows + wordBits - 1) / wordBits
	if len(mask.words) < nb || len(acc.words) < nb {
		panic(fmt.Sprintf("bitset: mask/acc smaller than %d row words", nb))
	}
	mw := mask.words
	aw := acc.words
	// Specialize the 1- and 2-antecedent sweeps (the bulk of mined rules
	// — item-merging keeps antecedents short) so the per-word AND chain
	// carries no range-loop state.
	switch len(bases) {
	case 1:
		b0 := int(bases[0])
		for i := 0; i < nb; i++ {
			w := mw[i]
			if w == 0 {
				continue
			}
			w &= v.words[b0+i*wordBits]
			if w == 0 {
				continue
			}
			aw[i] |= w
			scatterDelta(vals, i*wordBits, w, delta)
		}
	case 2:
		b0, b1 := int(bases[0]), int(bases[1])
		for i := 0; i < nb; i++ {
			w := mw[i]
			if w == 0 {
				continue
			}
			off := i * wordBits
			w &= v.words[b0+off]
			w &= v.words[b1+off]
			if w == 0 {
				continue
			}
			aw[i] |= w
			scatterDelta(vals, off, w, delta)
		}
	default:
		for i := 0; i < nb; i++ {
			w := mw[i]
			if w == 0 {
				continue
			}
			off := i * wordBits
			for _, cb := range bases {
				w &= v.words[int(cb)+off]
			}
			if w == 0 {
				continue
			}
			aw[i] |= w
			scatterDelta(vals, off, w, delta)
		}
	}
}

// scatterDelta adds delta to vals[base+r] for every set bit r of w.
func scatterDelta(vals []float64, base int, w uint64, delta float64) {
	for w != 0 {
		r := bits.TrailingZeros64(w)
		w &= w - 1
		vals[base+r] += delta
	}
}
