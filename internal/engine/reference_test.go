package engine

// UseReferenceKernel makes every Run in this test binary enumerate with
// referenceVisit until the returned function restores visitNode. The
// oracle in oracle_test.go runs the miners built on the engine once
// with each kernel and deep-equals their outputs.
func UseReferenceKernel() (restore func()) {
	kernel = (*Enumerator).referenceVisit
	return func() { kernel = (*Enumerator).visitNode }
}

// RaceEnabled tells the oracle in oracle_test.go whether the race
// detector instruments this build.
const RaceEnabled = raceEnabled

// posSplit splits an ascending candidate list at NumPos.
func (e *Enumerator) posSplit(cand []int) (pos, neg []int) {
	i := 0
	for i < len(cand) && cand[i] < e.NumPos {
		i++
	}
	return cand[:i], cand[i:]
}

// referenceVisit is the kernel visitNode replaced, kept as the oracle
// of its pruning decisions. It differs in three places:
//
//   - node entry builds the full Step 8 threshold (UpdateThresholds over
//     X_p and every positive candidate) and then applies PruneBeforeScan
//     to it, where visitNode asks PruneOnEntry;
//   - it re-splits the candidate list with posSplit instead of taking
//     the positive count from the parent;
//   - a candidate survives iff rowItems[r] ∩ alive ≠ ∅, where visitNode
//     tests membership in the union of the alive items' rows.
//
// Every decision is meant to be the same, so outputs and Stats must be
// deep-equal.
func (e *Enumerator) referenceVisit(t task) error {
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

	xp := t.x.CountBelow(e.NumPos)
	xn := t.x.Count() - xp
	candPos, candNeg := e.posSplit(t.cand)

	// Step 8: dynamic thresholds over the rows this subtree can cover.
	posIdx := t.x.AppendIndicesBelow(lv.posIdx[:0], e.NumPos)
	th := e.Visitor.UpdateThresholds(posIdx, candPos)

	// Step 9: loose bounds using inherited candidate counts.
	if e.Visitor.PruneBeforeScan(th, xp, xn, len(candPos), len(candNeg)) {
		e.stats.PrunedBeforeScan++
		return nil
	}

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

	if !e.DisableBackward && partial.AnyBelowAndNot(t.minNext, last, t.x) {
		e.stats.BackwardPruned++
		return nil
	}
	var total int
	xp, total = closed.IntersectCountBelow(partial, last, e.NumPos)
	xn = total - xp

	alive := lv.aliveSet()
	alive.Clear()
	for _, it := range t.items {
		alive.Add(it)
	}
	survivors := lv.survivors[:0]
	mp := 0
	for _, r := range t.cand {
		if closed.Contains(r) {
			continue
		}
		if !e.rowItems[r].Intersects(alive) {
			continue
		}
		survivors = append(survivors, r)
		if r < e.NumPos {
			mp++
		}
	}

	posIdx = closed.AppendIndicesBelow(lv.posIdx[:0], e.NumPos)
	th = e.Visitor.UpdateThresholds(posIdx, survivors[:mp])
	if e.Visitor.PruneAfterScan(th, xp, xn, mp, len(survivors)-mp) {
		e.stats.PrunedAfterScan++
		return nil
	}

	if xp > 0 {
		e.stats.Groups++
		e.Visitor.OnGroup(t.items, closed, xp, xn, posIdx)
	}

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
		if err := e.referenceVisit(task{
			x: childX, items: childItems, cand: survivors[i+1:], minNext: r + 1, depth: t.depth + 1,
		}); err != nil {
			return err
		}
	}
	return nil
}
