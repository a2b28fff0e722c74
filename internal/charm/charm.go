// Package charm implements the CHARM closed-itemset miner of Zaki &
// Hsiao [31] using diffsets — the column-enumeration baseline of the
// paper's Figure 6 experiments. CHARM explores the itemset-tidset
// search tree, applying the four subsumption properties to skip
// non-closed branches; diffsets store each node's tidset as a
// difference from its parent's, so deep nodes stay cheap.
//
// On discretized gene expression data the item space is in the
// thousands, which is exactly why the paper reports CHARM failing to
// complete there: the column enumeration space explodes. MaxNodes
// bounds runs for benchmarking; correctness is validated on small
// datasets against brute force.
package charm

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// ClosedItemset is one result: a closed itemset and its support
// (number of rows containing it, over the whole dataset).
type ClosedItemset = engine.ClosedItemset

// Config parameterizes a CHARM run.
type Config struct {
	Minsup int // absolute minimum support over all rows
	// MaxNodes, when positive, aborts after that many search nodes.
	MaxNodes int
}

// Result is the output of Mine.
type Result struct {
	Closed  []ClosedItemset
	Nodes   int
	Aborted bool
}

// candidate is an IT-node: extension items beyond the shared prefix,
// its diffset relative to the prefix tidset, and its support.
type candidate struct {
	ext  []int
	diff *bitset.Set
	sup  int
}

type searcher struct {
	cfg    Config
	budget *engine.Budget
	nodes  int
	closed map[int][][]int // support -> closed itemsets (sorted items)
	out    []ClosedItemset
}

// tick charges one work unit against the budget; the returned error
// (budget exhausted or context cancelled) unwinds the recursion.
func (m *searcher) tick() error {
	m.nodes++
	return m.budget.Charge(1)
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
		return nil, fmt.Errorf("charm: minsup must be >= 1, got %d", cfg.Minsup)
	}
	n := d.NumRows()
	all := bitset.New(n)
	all.Fill()

	var cands []*candidate
	for i := 0; i < d.NumItems(); i++ {
		t := d.ItemRows(i)
		sup := t.Count()
		if sup < cfg.Minsup {
			continue
		}
		cands = append(cands, &candidate{
			ext:  []int{i},
			diff: all.Difference(t), // d(X) = T \ t(X)
			sup:  sup,
		})
	}
	sortBySupport(cands)

	m := &searcher{cfg: cfg, budget: engine.NewBudget(ctx, cfg.MaxNodes), closed: make(map[int][][]int)}
	res := &Result{}
	switch err := m.extend(nil, cands); {
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

func sortBySupport(cs []*candidate) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].sup < cs[j].sup })
}

// extend processes one prefix's candidate list (the CHARM-EXTEND loop).
func (m *searcher) extend(prefix []int, cands []*candidate) error {
	for i := 0; i < len(cands); i++ {
		ci := cands[i]
		if ci == nil {
			continue
		}
		if err := m.tick(); err != nil {
			return err
		}
		var children []*candidate
		for j := i + 1; j < len(cands); j++ {
			cj := cands[j]
			if cj == nil {
				continue
			}
			// budget tracks pair evaluations, the real unit of work
			if err := m.tick(); err != nil {
				return err
			}
			// t(P∪Xi) R t(P∪Xj) relations via diffsets:
			// t equal      iff d_i == d_j
			// t(i) ⊂ t(j)  iff d_i ⊃ d_j
			// t(i) ⊃ t(j)  iff d_i ⊂ d_j
			iInJ := cj.diff.ContainsAll(ci.diff) // d_i ⊆ d_j ⇔ t(i) ⊇ t(j)
			jInI := ci.diff.ContainsAll(cj.diff) // d_j ⊆ d_i ⇔ t(j) ⊇ t(i)
			switch {
			case iInJ && jInI: // property 1: equal tidsets
				ci.ext = append(ci.ext, cj.ext...)
				cands[j] = nil
			case jInI: // property 2: t(i) ⊂ t(j) — absorb j's items into i
				ci.ext = append(ci.ext, cj.ext...)
			case iInJ: // property 3: t(i) ⊃ t(j) — j moves under i
				cands[j] = nil
				d := cj.diff.Difference(ci.diff)
				sup := ci.sup - d.Count()
				if sup >= m.cfg.Minsup {
					children = append(children, &candidate{
						ext:  append([]int(nil), cj.ext...),
						diff: d,
						sup:  sup,
					})
				}
			default: // property 4: incomparable
				d := cj.diff.Difference(ci.diff)
				sup := ci.sup - d.Count()
				if sup >= m.cfg.Minsup {
					children = append(children, &candidate{
						ext:  append([]int(nil), cj.ext...),
						diff: d,
						sup:  sup,
					})
				}
			}
		}
		itemset := append(append([]int(nil), prefix...), ci.ext...)
		sort.Ints(itemset)
		if len(children) > 0 {
			sortBySupport(children)
			if err := m.extend(itemset, children); err != nil {
				return err
			}
		}
		m.addClosed(itemset, ci.sup)
	}
	return nil
}

// addClosed records the itemset unless a superset with equal support is
// already known (the CHARM subsumption check, hashed by support).
func (m *searcher) addClosed(items []int, sup int) {
	for _, z := range m.closed[sup] {
		if isSubset(items, z) {
			return
		}
	}
	m.closed[sup] = append(m.closed[sup], items)
	m.out = append(m.out, ClosedItemset{Items: items, Support: sup})
}

// isSubset reports a ⊆ b for sorted int slices.
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

// MineRuleGroups runs CHARM and converts each closed itemset into the
// rule group it generates for the given consequent class, filtered by
// class-level support and confidence. This is how the paper's
// comparison uses a closed-itemset miner as a rule-group miner.
func MineRuleGroups(d *dataset.Dataset, cls dataset.Label, cfg Config, minClassSup int, minconf float64) ([]*rules.Group, *Result, error) {
	res, err := Mine(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	var out []*rules.Group
	seen := map[string]bool{}
	for _, c := range res.Closed {
		g := rules.GroupFromItems(d, c.Items, cls)
		if g.Support < minClassSup || g.Confidence < minconf {
			continue
		}
		key := g.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, g)
	}
	rules.SortGroups(out)
	return out, res, nil
}
