// Package bitsetaliasdep is a fixture dependency: a foreign package
// exposing an accessor that shares its internal set.
package bitsetaliasdep

import "repro/internal/bitset"

// Index models a package-private inverted index whose accessor returns
// the shared internal set.
type Index struct {
	Rows *bitset.Set
}

// ItemRows returns the index's internal row set. Callers borrow it.
func (ix *Index) ItemRows() *bitset.Set { return ix.Rows }
