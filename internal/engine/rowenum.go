package engine

import (
	"context"
	"errors"

	"repro/internal/bitset"
)

// Visitor receives enumeration events and owns all threshold logic.
// Hooks are called in the Step order of Algorithm MineTopkRGS (Figure
// 3), with the structural backward check folded into the engine. A
// node asks PruneOnEntry on entry and, if it survives the scan, builds
// its one threshold with UpdateThresholds at Step 11; that threshold
// feeds PruneAfterScan and the PruneBeforeScan check of each child.
//
// Aliasing contract: every slice and bitset a hook receives aliases the
// engine's scratch arena and is valid only for the duration
// of the call — the engine overwrites the same buffers at the next
// node. A visitor that retains anything must copy it at the event
// boundary: Clone() for bitsets, append([]int(nil), s...) for index
// slices. Retention without a copy is the one way to corrupt an
// otherwise deterministic search.
type Visitor interface {
	// PruneOnEntry is Steps 8-9 at node entry: it reports whether the
	// loose bounds (support xp+len(candPos), confidence with the xn
	// negatives already in X) fail the threshold over every row the
	// subtree can cover. x is the node's pending row set (its positive
	// rows are X_p); candPos the positive candidate rows still
	// enumerable below the node (a superset of the reachable R_p,
	// Lemma 3.2); rn the negative candidate count. The answer must
	// equal building the Step 8 threshold over X_p ∪ candPos and
	// passing it to PruneBeforeScan, but a visitor may stop at the
	// first row that admits the bound. Both x and candPos are
	// arena-backed (see the interface comment): scan them, do not keep
	// them.
	PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool
	// UpdateThresholds is Step 11's threshold: xPos are the positive
	// rows of the node's closed row set, candPos the positive
	// candidates that survived its projection. Together they bound the
	// rows that groups found in this subtree can cover (Lemma 3.2).
	// The returned threshold is passed to PruneAfterScan for this node
	// and to PruneBeforeScan for each of its children. Both slices are
	// arena-backed: scan them, do not keep them.
	UpdateThresholds(xPos, candPos []int) Threshold
	// PruneBeforeScan is Step 9 as the parent applies it to a child
	// before descending: loose upper bounds computed without scanning
	// the child's projected table, against the parent's threshold. rp
	// and rn are the child's candidate counts.
	PruneBeforeScan(th Threshold, xp, xn, rp, rn int) bool
	// PruneAfterScan is Step 11: tight upper bounds. mp is the number of
	// positive candidates that survive the node's projection, rn the
	// surviving negative candidates.
	PruneAfterScan(th Threshold, xp, xn, mp, rn int) bool
	// OnGroup is Steps 12-13: a closed rule group was identified. items
	// is I(X) (sorted), rows is R(I(X)), xp/xn its class split, xPos the
	// positive row ids of rows. All of items, rows and xPos alias arena
	// memory owned by the engine — a visitor that keeps the group must
	// copy them here, at the event boundary (rows.Clone() and fresh
	// slices); these retained copies are the only sanctioned per-group
	// allocations on the mining path.
	OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int)
}

// MonotoneChildren is implemented by visitors whose Step-9 check is
// monotone along a node's Step-14 loop: with the node's threshold
// fixed and any state the visitor reads only tightening, once
// PruneBeforeScan prunes the child of survivors[i] it prunes the child
// of every later survivor. Survivors ascend with the positives first,
// so each later child's candidates are a subset of the one before. When
// MonotoneChildren returns true, Run ends the loop at the first pruned
// child and counts every child left as pruned before scan, so Stats
// read exactly as if each had been checked. A visitor whose bound is
// not monotone this way (FARMER's chi-square) must not return true.
type MonotoneChildren interface {
	MonotoneChildren() bool
}

// Enumerator runs the row enumeration on the calling goroutine.
// Configure the fields, then call Run. A single Enumerator is not safe
// for concurrent Run calls. Repeated Run calls reuse the enumerator's
// scratch arena and row→item index, so steady-state runs allocate
// nothing beyond what the visitor retains; ItemRows must therefore stay
// unchanged across Runs.
type Enumerator struct {
	NumRows  int           // total rows
	NumPos   int           // rows 0..NumPos-1 are the consequent class
	ItemRows []*bitset.Set // full support set per item id; read-only during Run

	Visitor Visitor

	// DisableBackward turns off the closedness check (ablation only:
	// the same group is then reported once per generating row subset).
	DisableBackward bool
	// MaxNodes, when positive, aborts the search after that many nodes;
	// Stats.Aborted reports the cutoff. Results seen so far remain valid
	// but possibly incomplete.
	MaxNodes int
	// Progress, when non-nil, receives a ProgressSnapshot every
	// DefaultProgressEvery nodes plus one final snapshot per Run. The
	// sampling adds one branch per node and no heap allocation; see
	// progress.go.
	Progress ProgressFunc

	// budget counts the run's nodes (Stats.Nodes is read from it) and
	// stops the run on a cancel or at MaxNodes.
	budget *Budget
	stats  Stats
	// stopAtPrune is the visitor's MonotoneChildren answer for this run.
	stopAtPrune bool

	// scratch is the run's arena; rowItems is the transposed item index
	// (row id -> items whose support contains the row), built once per
	// enumerator.
	scratch  *scratch
	rowItems []*bitset.Set
}

// task is one enumeration node: the pending row set x (not yet closed)
// and its class split xp/xn, the alive items, the candidate rows (all
// ids >= minNext, ascending), the number of positive rows at the head
// of cand, and the depth.
type task struct {
	x       *bitset.Set
	xp, xn  int
	items   []int
	cand    []int
	numPos  int
	minNext int
	depth   int
}

// kernel is the node visit Run starts the enumeration with. The
// package's tests swap in the reference kernel kept in
// reference_test.go; nothing else assigns it.
var kernel = (*Enumerator).visitNode

// Run enumerates starting from the given alive item list (the frequent
// items, ascending) and returns work statistics. The context is checked
// at every node entry, through the Budget's lock-free poll of its Done
// channel: cancellation and deadline expiry return ctx.Err() within one
// node; a MaxNodes abort is reported via Stats.Aborted with a nil error
// (partial results in the visitor remain valid). Run asks the visitor
// once for the optional MonotoneChildren method.
func (e *Enumerator) Run(ctx context.Context, items []int) (Stats, error) {
	e.stats = Stats{}
	if len(items) == 0 || e.NumRows == 0 {
		return e.stats, nil
	}
	if e.budget == nil {
		e.budget = &Budget{}
	}
	e.budget.Reset(ctx, e.MaxNodes)
	mc, _ := e.Visitor.(MonotoneChildren)
	e.stopAtPrune = mc != nil && mc.MonotoneChildren()
	e.ensureScratch()
	rootX := e.scratch.level(0).xSet()
	rootX.Clear()
	root := task{x: rootX, items: items, cand: e.scratch.rootCand, numPos: e.NumPos}

	err := kernel(e, root)
	e.stats.Nodes = e.budget.Nodes()
	if errors.Is(err, ErrNodeBudget) {
		e.stats.Aborted = true
		err = nil
	}
	if e.Progress != nil && err == nil {
		// Final snapshot: short runs that never crossed a sampling stride
		// still report their totals once.
		e.emitProgress()
	}
	return e.stats, err
}

// ensureScratch builds the arena and the row→item index on the first
// Run; later Runs reuse both (ItemRows is read-only by contract).
func (e *Enumerator) ensureScratch() {
	if e.scratch == nil {
		e.scratch = newScratch(e.NumRows, e.NumPos, len(e.ItemRows))
	}
	if e.rowItems == nil {
		e.rowItems = buildRowItems(e.NumRows, e.ItemRows)
	}
}

// buildRowItems transposes the item supports into per-row item sets:
// rowItems[r] contains item i iff itemRows[i] contains r. A child's item
// list is rowItems[r] intersected with the node's alive mask.
func buildRowItems(numRows int, itemRows []*bitset.Set) []*bitset.Set {
	rowItems := make([]*bitset.Set, numRows)
	for r := range rowItems {
		rowItems[r] = bitset.New(len(itemRows))
	}
	for it, rs := range itemRows {
		if rs == nil {
			continue
		}
		item := it
		rs.ForEach(func(r int) bool {
			rowItems[r].Add(item)
			return true
		})
	}
	return rowItems
}

// visitNode processes one enumeration node and recurses into each
// surviving child. The node works entirely inside its depth's arena
// level: the steady-state path performs zero heap allocations (see
// DESIGN.md §5b, "memory model of the hot loop").
//
//vet:allocfree
func (e *Enumerator) visitNode(t task) error {
	if err := e.budget.Charge(1); err != nil {
		return err
	}
	if t.depth > e.stats.MaxDepth {
		e.stats.MaxDepth = t.depth
	}
	if e.Progress != nil && e.budget.Nodes()%DefaultProgressEvery == 0 {
		e.emitProgress()
	}
	lv := e.scratch.level(t.depth)
	xp, xn := t.xp, t.xn

	// Steps 8-9: loose bounds from the inherited candidate counts,
	// against the threshold over every row this subtree can cover. No
	// threshold is built here: the visitor answers the yes/no question
	// and may stop at the first row that admits the bound. The parent
	// checked this same bound against its own threshold, taken earlier
	// over a superset of these rows, so the answer is nearly always
	// "keep"; it changes only where lists or the minimum support rose
	// since.
	if e.Visitor.PruneOnEntry(t.x, t.cand[:t.numPos], xp, xn, len(t.cand)-t.numPos) {
		e.stats.PrunedBeforeScan++
		return nil
	}

	// Closure: R(I(X)) = ∩_{i ∈ I(X)} R(i), folded into the arena with
	// the last intersection step fused against the backward check and
	// the class-split count. partial holds ∩ of all items but the last
	// (for a single item, partial == last and the product is R(i)∩R(i)).
	rows := e.ItemRows
	n := len(t.items)
	closed := lv.closedSet()
	last := rows[t.items[n-1]]
	partial := last
	if n >= 2 {
		if n == 2 {
			partial = rows[t.items[0]]
		} else {
			closed.IntersectInto(rows[t.items[0]], rows[t.items[1]])
			for _, it := range t.items[2 : n-1] {
				closed.IntersectWith(rows[it])
			}
			partial = closed
		}
	}

	// Step 7: backward pruning — a row ordered before the enumeration
	// point that is in R(I(X)) but not in X means this closed set was
	// already reached under an earlier branch. The fused check exits at
	// the first offending word, before the closure is even materialized.
	if !e.DisableBackward && partial.AnyBelowAndNot(t.minNext, last, t.x) {
		e.stats.BackwardPruned++
		return nil
	}
	var total int
	xp, total = closed.IntersectCountBelow(partial, last, e.NumPos)
	xn = total - xp

	// Step 10: forward closure — candidates inside R(I(X)) join X; the
	// rest survive iff some alive item still contains them. The loop
	// that fills the alive-items mask also folds the union of their
	// rows; with the closure taken out of it, a candidate survives iff
	// it is in the union.
	alive := lv.aliveSet()
	alive.Clear()
	union := lv.unionSet()
	union.Clear()
	for _, it := range t.items {
		alive.Add(it)
		union.UnionWith(rows[it])
	}
	union.DifferenceWith(closed)
	survivors := lv.survivors[:0]
	mp := 0
	for _, r := range t.cand {
		if !union.Contains(r) {
			continue
		}
		survivors = append(survivors, r)
		if r < e.NumPos {
			mp++
		}
	}

	// Step 11: tight bounds using surviving candidate counts, against
	// the node's one threshold, built here over the exact reachable
	// row set (X_p of the closed set plus the surviving positive
	// candidates — Lemma 3.2's maximal coverage). Candidates are
	// ascending, so the positive survivors are exactly the prefix
	// survivors[:mp].
	posIdx := closed.AppendIndicesBelow(lv.posIdx[:0], e.NumPos)
	th := e.Visitor.UpdateThresholds(posIdx, survivors[:mp])
	if e.Visitor.PruneAfterScan(th, xp, xn, mp, len(survivors)-mp) {
		e.stats.PrunedAfterScan++
		return nil
	}

	// Steps 12-13: report the group at this node. items, closed and
	// posIdx alias the arena; the visitor copies what it keeps.
	if xp > 0 {
		e.stats.Groups++
		e.Visitor.OnGroup(t.items, closed, xp, xn, posIdx)
	}

	// Step 14: descend into each surviving candidate in ORD order. Each
	// child is first checked against the loose bounds using the
	// threshold already computed for this node (over a superset of the
	// child's reachable rows, so conservative): children that cannot
	// contribute are skipped without paying a recursive call. The
	// child's X is written into the next level's arena slot, where it
	// stays stable for the whole child subtree; posLeft, the positive
	// rows left in survivors[i+1:], becomes its candidate split. For a
	// MonotoneChildren visitor the first pruned child ends the loop: every
	// later child would be pruned too, and is counted as such.
	childLv := e.scratch.level(t.depth + 1)
	childX := childLv.xSet()
	childMask := lv.childMaskSet()
	posLeft := mp
	for i, r := range survivors {
		childXp, childXn := xp, xn
		if r < e.NumPos {
			posLeft--
			childXp++
		} else {
			childXn++
		}
		negLeft := len(survivors) - i - 1 - posLeft
		if e.Visitor.PruneBeforeScan(th, childXp, childXn, posLeft, negLeft) {
			if e.stopAtPrune {
				e.stats.PrunedBeforeScan += len(survivors) - i
				break
			}
			e.stats.PrunedBeforeScan++
			continue
		}
		childMask.IntersectInto(e.rowItems[r], alive)
		childItems := childMask.AppendIndicesBelow(lv.childItems[:0], e.scratch.numItems)
		if len(childItems) == 0 {
			continue
		}
		childX.CopyFrom(closed)
		childX.Add(r)
		if err := e.visitNode(task{
			x: childX, xp: childXp, xn: childXn, items: childItems,
			cand: survivors[i+1:], numPos: posLeft, minNext: r + 1, depth: t.depth + 1,
		}); err != nil {
			return err
		}
	}
	return nil
}
