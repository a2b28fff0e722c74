package engine

import "repro/internal/bitset"

// scratch is the arena behind the enumeration kernel:
// depth-indexed stacks of preallocated bitsets and int buffers, grown
// lazily as the search deepens. Every node at depth d works exclusively
// in level d (and writes each child's row set into level d+1 before
// recursing), so the steady-state path of visitNode performs zero heap
// allocations — buffers are sized to their worst case once and reused
// for every node that ever reaches the depth.
//
// Ownership: a scratch belongs to one Enumerator, and so to the one
// goroutine running it (see DESIGN.md §5b).
type scratch struct {
	numRows  int
	numItems int
	numPos   int

	// rootCand is the root task's candidate list: every row id,
	// ascending. Built once; the kernel only ever reslices it.
	rootCand []int

	levels []*level
}

// level holds one depth's buffers. All capacities are worst-case exact
// (survivors ≤ numRows, childItems ≤ numItems, posIdx ≤ numPos), so
// appends through them never grow.
type level struct {
	x         *bitset.Set // the task's pending row set X (written by the parent)
	closed    *bitset.Set // R(I(X)) of the node at this depth
	alive     *bitset.Set // item-universe mask of the node's alive items
	union     *bitset.Set // rows some alive item contains, minus R(I(X))
	childMask *bitset.Set // item-universe scratch for per-child item sets

	survivors  []int
	childItems []int
	posIdx     []int
}

// newScratch returns an empty arena for the given dataset geometry.
// Levels are grown on first use, so memory is proportional to the
// deepest node actually reached, not to the theoretical maximum depth.
func newScratch(numRows, numPos, numItems int) *scratch {
	sc := &scratch{numRows: numRows, numItems: numItems, numPos: numPos}
	sc.rootCand = make([]int, numRows)
	for i := range sc.rootCand {
		sc.rootCand[i] = i
	}
	return sc
}

// level returns the buffers for depth d, allocating any missing levels.
// The returned pointer stays valid across later growth.
func (sc *scratch) level(d int) *level {
	for len(sc.levels) <= d {
		sc.levels = append(sc.levels, &level{
			x:          bitset.New(sc.numRows),
			closed:     bitset.New(sc.numRows),
			alive:      bitset.New(sc.numItems),
			union:      bitset.New(sc.numRows),
			childMask:  bitset.New(sc.numItems),
			survivors:  make([]int, 0, sc.numRows),
			childItems: make([]int, 0, sc.numItems),
			posIdx:     make([]int, 0, sc.numPos),
		})
	}
	return sc.levels[d]
}

// The accessors below are how the kernel borrows arena bitsets for
// in-place work. Routing the borrow through a call (instead of reading
// the fields of a foreign struct) marks the hand-off explicitly: the
// caller owns the returned set until it next asks the same level for
// it, which is the ownership model vetsuite's bitsetalias analyzer
// checks for.

// xSet returns the level's row-set slot for a task's X.
//
//vet:allocfree
func (l *level) xSet() *bitset.Set { return l.x }

// closedSet returns the level's row-set slot for R(I(X)).
//
//vet:allocfree
func (l *level) closedSet() *bitset.Set { return l.closed }

// aliveSet returns the level's item-universe mask slot.
//
//vet:allocfree
func (l *level) aliveSet() *bitset.Set { return l.alive }

// unionSet returns the level's row-set slot for the survivor scan.
//
//vet:allocfree
func (l *level) unionSet() *bitset.Set { return l.union }

// childMaskSet returns the level's per-child item-set slot.
//
//vet:allocfree
func (l *level) childMaskSet() *bitset.Set { return l.childMask }
