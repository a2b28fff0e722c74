// Package closet implements a CLOSET+-style closed itemset miner [30]:
// FP-tree based pattern growth with item merging (hybrid tree
// projection) and result-set subsumption checking — the second
// column-enumeration baseline of the paper's Figure 6 experiments.
//
// As with CHARM, the point of carrying this baseline is that pattern
// growth over thousands of discretized gene-expression items does not
// terminate in reasonable time; MaxNodes bounds benchmark runs, and
// correctness is validated against brute force on small data.
package closet

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// ClosedItemset mirrors charm.ClosedItemset: a closed itemset and its
// support over all rows.
type ClosedItemset = engine.ClosedItemset

// Config parameterizes a run.
type Config struct {
	Minsup   int
	MaxNodes int // 0 = unbounded
}

// Result is the output of Mine.
type Result struct {
	Closed  []ClosedItemset
	Nodes   int
	Aborted bool
}

// fpNode is one FP-tree node.
type fpNode struct {
	item     int
	count    int
	parent   *fpNode
	children map[int]*fpNode
	next     *fpNode // header chain
}

// fpTree is an FP-tree with its header table.
type fpTree struct {
	root   *fpNode
	heads  map[int]*fpNode
	counts map[int]int // item -> support within this (conditional) tree
	minsup int
}

func newTree(minsup int) *fpTree {
	return &fpTree{
		root:   &fpNode{item: -1, children: map[int]*fpNode{}},
		heads:  map[int]*fpNode{},
		counts: map[int]int{},
		minsup: minsup,
	}
}

// insert adds a transaction (already filtered and sorted in the tree's
// item order) with a count.
func (t *fpTree) insert(items []int, count int) {
	n := t.root
	for _, it := range items {
		c, ok := n.children[it]
		if !ok {
			c = &fpNode{item: it, parent: n, children: map[int]*fpNode{}}
			c.next = t.heads[it]
			t.heads[it] = c
			n.children[it] = c
		}
		c.count += count
		t.counts[it] += count
		n = c
	}
}

type grower struct {
	cfg    Config
	budget *engine.Budget
	nodes  int
	closed map[int][][]int
	out    []ClosedItemset
}

// tick charges n work units against the budget; the returned error
// (budget exhausted or context cancelled) unwinds the recursion.
func (m *grower) tick(n int) error {
	m.nodes += n
	return m.budget.Charge(n)
}

// Mine discovers all closed itemsets of d with support >= cfg.Minsup.
// It is MineContext without cancellation.
func Mine(d *dataset.Dataset, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cfg) // vetsuite:allow ctxflow -- Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the search and returns ctx.Err() with a nil Result. A
// Config.MaxNodes abort is not an error — the partial Result is
// returned with Aborted set.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("closet: minsup must be >= 1, got %d", cfg.Minsup)
	}
	// Global item supports; keep frequent ones, order by descending
	// support (FP-tree convention), ties by item id for determinism.
	sup := make([]int, d.NumItems())
	for i := range sup {
		sup[i] = d.ItemRows(i).Count()
	}
	orderOf := buildOrder(sup, cfg.Minsup)

	tree := newTree(cfg.Minsup)
	for _, row := range d.Rows {
		tx := filterSort(row, sup, cfg.Minsup, orderOf)
		if len(tx) > 0 {
			tree.insert(tx, 1)
		}
	}

	m := &grower{cfg: cfg, budget: engine.NewBudget(ctx, cfg.MaxNodes), closed: map[int][][]int{}}
	res := &Result{}
	switch err := m.mineTree(tree, nil, orderOf); {
	case errors.Is(err, engine.ErrNodeBudget):
		res.Aborted = true
	case err != nil:
		return nil, err
	}
	res.Closed = m.out
	res.Nodes = m.nodes
	sort.Slice(res.Closed, func(i, j int) bool {
		a, b := res.Closed[i], res.Closed[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return less(a.Items, b.Items)
	})
	return res, nil
}

func less(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// buildOrder returns a rank per item (lower rank = earlier in
// transactions = higher support); -1 marks infrequent items.
func buildOrder(sup []int, minsup int) []int {
	type is struct{ item, sup int }
	var freq []is
	for i, s := range sup {
		if s >= minsup {
			freq = append(freq, is{i, s})
		}
	}
	sort.Slice(freq, func(a, b int) bool {
		if freq[a].sup != freq[b].sup {
			return freq[a].sup > freq[b].sup
		}
		return freq[a].item < freq[b].item
	})
	order := make([]int, len(sup))
	for i := range order {
		order[i] = -1
	}
	for rank, f := range freq {
		order[f.item] = rank
	}
	return order
}

// filterSort keeps frequent items of a transaction sorted by tree order.
func filterSort(row []int, sup []int, minsup int, orderOf []int) []int {
	var tx []int
	for _, it := range row {
		if sup[it] >= minsup && orderOf[it] >= 0 {
			tx = append(tx, it)
		}
	}
	sort.Slice(tx, func(a, b int) bool { return orderOf[tx[a]] < orderOf[tx[b]] })
	return tx
}

// mineTree performs pattern growth on a (conditional) FP-tree with the
// given prefix itemset.
func (m *grower) mineTree(t *fpTree, prefix []int, orderOf []int) error {
	if err := m.tick(1); err != nil {
		return err
	}

	// Header items in ascending support order (bottom-up growth).
	var items []int
	for it, c := range t.counts {
		if c >= t.minsup {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool { return orderOf[items[a]] > orderOf[items[b]] })

	for _, it := range items {
		sup := t.counts[it]
		// Conditional pattern base of `it`.
		type path struct {
			items []int
			count int
		}
		var base []path
		condCount := map[int]int{}
		for n := t.heads[it]; n != nil; n = n.next {
			var p []int
			for a := n.parent; a != nil && a.item != -1; a = a.parent {
				p = append(p, a.item)
			}
			// budget tracks real path-collection work
			if err := m.tick(1 + len(p)); err != nil {
				return err
			}
			base = append(base, path{items: p, count: n.count})
			for _, x := range p {
				condCount[x] += n.count
			}
		}
		// Item merging: items appearing in every transaction of the base
		// join the prefix directly (they share it's support).
		var merged []int
		for x, c := range condCount {
			if c == sup {
				merged = append(merged, x)
			}
		}
		newPrefix := append(append([]int(nil), prefix...), it)
		newPrefix = append(newPrefix, merged...)
		sort.Ints(newPrefix)

		// Conditional tree over the remaining frequent base items.
		cond := newTree(t.minsup)
		mergedSet := map[int]bool{}
		for _, x := range merged {
			mergedSet[x] = true
		}
		for _, p := range base {
			var tx []int
			for _, x := range p.items {
				if !mergedSet[x] && condCount[x] >= t.minsup {
					tx = append(tx, x)
				}
			}
			if len(tx) > 0 {
				sort.Slice(tx, func(a, b int) bool { return orderOf[tx[a]] < orderOf[tx[b]] })
				cond.insert(tx, p.count)
			}
		}
		if len(cond.counts) > 0 {
			if err := m.mineTree(cond, newPrefix, orderOf); err != nil {
				return err
			}
		}
		m.addClosed(newPrefix, sup)
	}
	return nil
}

// addClosed records the itemset unless a known superset has the same
// support (subsumption check, hashed by support).
func (m *grower) addClosed(items []int, sup int) {
	for _, z := range m.closed[sup] {
		if isSubset(items, z) {
			return
		}
	}
	m.closed[sup] = append(m.closed[sup], items)
	m.out = append(m.out, ClosedItemset{Items: append([]int(nil), items...), Support: sup})
}

func isSubset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
