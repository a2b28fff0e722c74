// Package bitsetalias exercises the clone-before-mutate analyzer.
package bitsetalias

import (
	"repro/internal/analysis/testdata/src/bitsetaliasdep"
	"repro/internal/bitset"
)

func mutateBorrowedVar(ix *bitsetaliasdep.Index) {
	s := ix.ItemRows()
	s.Add(1) // want `in-place Add on a bitset borrowed from another package`
}

func mutateBorrowedCallResult(ix *bitsetaliasdep.Index, other *bitset.Set) {
	ix.ItemRows().IntersectWith(other) // want `in-place IntersectWith on a bitset borrowed`
}

func mutateForeignField(ix *bitsetaliasdep.Index) {
	ix.Rows.Clear() // want `in-place Clear on a bitset borrowed`
}

func cloneFirst(ix *bitsetaliasdep.Index) *bitset.Set {
	s := ix.ItemRows().Clone()
	s.Add(1) // ok: cloned before mutating
	t := ix.ItemRows()
	t = t.Clone()
	t.Remove(0) // ok: reassigned from Clone
	return s
}

func freshProducer(ix *bitsetaliasdep.Index, other *bitset.Set) {
	f := ix.ItemRows().Intersect(other)
	f.Remove(2) // ok: Intersect returns a new set
}

func locallyOwned(n int) *bitset.Set {
	s := bitset.New(n)
	s.Fill() // ok: locally allocated
	return s
}

type holder struct {
	rows *bitset.Set
}

// own mutates the receiver's own field: ownership, not aliasing.
func (h *holder) own() { h.rows.Add(1) } // ok

// poke mutates somebody else's field.
func poke(h *holder) {
	h.rows.Add(1) // want `in-place Add on a bitset borrowed`
}

func annotated(ix *bitsetaliasdep.Index) {
	ix.ItemRows().Clear() // vetsuite:allow bitsetalias -- fixture: suppression must work
}
