// Package lowerbound implements FindLB (Figure 5): breadth-first search
// for the nl shortest lower-bound rules of a rule group, with items
// ranked by the discriminant power of their genes and containment tests
// done on row bitmaps.
//
// A lower bound of group G (upper bound A, support set R) is a minimal
// A' ⊆ A with R(A') = R (Lemma 5.1). Equivalently — because every row
// in R contains all of A — A' must "kill" every row outside R: each
// outside row must miss at least one item of A', and no item of A' may
// be redundant. Lower bounds are therefore exactly the minimal hitting
// sets of the outside rows' complements, which is how the search is
// implemented.
package lowerbound

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// Config controls the search.
type Config struct {
	// NL is the number of lower bounds to return (FindLB's nl).
	NL int
	// MaxLen caps candidate antecedent length; 0 means no cap. The
	// paper observes real lower bounds have 1-5 items.
	MaxLen int
	// MaxCandidates bounds the number of candidates examined, so
	// adversarial groups cannot blow up classifier construction;
	// 0 means the default of 1<<20.
	MaxCandidates int
	// ItemScore ranks items for the breadth-first order (higher =
	// examined earlier, Step 1 of FindLB). When nil, items are scored by
	// the information gain of their presence against the class labels.
	ItemScore []float64
}

// Find returns up to cfg.NL shortest lower-bound rules of group g over
// dataset d, most discriminant item combinations first.
func Find(d *dataset.Dataset, g *rules.Group, cfg Config) []*rules.Rule {
	if cfg.NL <= 0 {
		return nil
	}
	budget := cfg.MaxCandidates
	if budget <= 0 {
		budget = 1 << 20
	}

	// Outside rows: rows not in the group's support set.
	outside := g.Rows.Clone()
	flip := bitset.New(d.NumRows())
	flip.Fill()
	outside = flip.Difference(outside)

	mkRule := func(ant []int) *rules.Rule {
		sorted := append([]int(nil), ant...)
		sort.Ints(sorted)
		return &rules.Rule{
			Antecedent: sorted,
			Class:      g.Class,
			Support:    g.Support,
			Confidence: g.Confidence,
		}
	}

	// Degenerate group covering every row: the empty rule is its only
	// lower bound.
	if outside.IsEmpty() {
		return []*rules.Rule{mkRule(nil)}
	}

	// Step 1: rank the upper bound's items by descending score.
	ranked := append([]int(nil), g.Antecedent...)
	score := cfg.ItemScore
	if score == nil {
		score = DefaultItemScores(d)
	}
	sort.SliceStable(ranked, func(a, b int) bool { return score[ranked[a]] > score[ranked[b]] })

	// Group items by identical kill sets. Correlated gene intervals
	// share kill sets, and any two same-kill items are interchangeable
	// in every cover, so the search runs over one representative per
	// class and substitutions are expanded afterwards. This is what
	// keeps FindLB tractable on block-correlated expression data.
	type itemClass struct {
		items []int // rank order within the class
		kill  *bitset.Set
	}
	var classes []itemClass
	classOf := map[string]int{}
	for _, it := range ranked {
		k := outside.Difference(d.ItemRows(it))
		if k.IsEmpty() {
			continue // kills nothing: never part of a minimal cover
		}
		key := k.Key()
		ci, ok := classOf[key]
		if !ok {
			ci = len(classes)
			classOf[key] = ci
			classes = append(classes, itemClass{kill: k})
		}
		classes[ci].items = append(classes[ci].items, it)
	}
	kills := make([]*bitset.Set, len(classes))
	for j := range classes {
		kills[j] = classes[j].kill
	}

	// emit expands a minimal representative cover into concrete lower
	// bounds by substituting class members in rank order, until nl rules
	// are produced. It reports whether the nl quota is filled.
	var found []*rules.Rule
	emit := func(idx []int) bool {
		choice := make([]int, len(idx))
		var rec func(pos int) bool
		rec = func(pos int) bool {
			if pos == len(idx) {
				ant := make([]int, len(idx))
				for i, j := range idx {
					ant[i] = classes[j].items[choice[i]]
				}
				found = append(found, mkRule(ant))
				return len(found) >= cfg.NL
			}
			for c := range classes[idx[pos]].items {
				choice[pos] = c
				if rec(pos + 1) {
					return true
				}
			}
			return false
		}
		return rec(0)
	}

	// Step 2: BFS over ranked class combinations by increasing size. A
	// candidate is a lower bound iff its kill union covers all outside
	// rows and removing any single class breaks coverage (minimality).
	type cand struct {
		idx   []int       // indices into classes
		cover *bitset.Set // union of kills
	}
	level := make([]cand, 0, len(classes))
	for j := range classes {
		level = append(level, cand{idx: []int{j}, cover: kills[j]})
	}

	examined := 0
	size := 1
	for len(level) > 0 && len(found) < cfg.NL {
		if cfg.MaxLen > 0 && size > cfg.MaxLen {
			break
		}
		var next []cand
		for _, c := range level {
			examined++
			if examined > budget {
				return found
			}
			if c.cover.ContainsAll(outside) {
				if isMinimal(c.idx, kills, outside) {
					if emit(c.idx) {
						return found
					}
				}
				continue // supersets of a cover are never minimal
			}
			last := c.idx[len(c.idx)-1]
			for j := last + 1; j < len(classes); j++ {
				// If kills[j] ⊆ cover(c), class j stays redundant in every
				// extension of c — no minimal cover there. If kills[j] ⊇
				// cover(c), every class of c becomes redundant once j is
				// added; the minimal covers through j are reached from
				// shorter prefixes containing j instead. Both prune.
				if c.cover.ContainsAll(kills[j]) || kills[j].ContainsAll(c.cover) {
					continue
				}
				next = append(next, cand{
					idx:   append(append([]int(nil), c.idx...), j),
					cover: c.cover.Union(kills[j]),
				})
			}
		}
		level = next
		size++
	}
	return found
}

// isMinimal reports whether removing any single item breaks coverage.
func isMinimal(idx []int, kills []*bitset.Set, outside *bitset.Set) bool {
	if len(idx) == 1 {
		return true
	}
	for drop := range idx {
		cover := bitset.New(outside.Len())
		for i, j := range idx {
			if i == drop {
				continue
			}
			cover.UnionWith(kills[j])
		}
		if cover.ContainsAll(outside) {
			return false
		}
	}
	return true
}

// DefaultItemScores computes per-item information gain of presence
// versus class — the discrete analogue of the paper's gene entropy
// score, used when the caller does not supply Config.ItemScore. Callers
// issuing many Find calls on one dataset should compute this once and
// pass it explicitly; it costs O(items × rows).
func DefaultItemScores(d *dataset.Dataset) []float64 {
	scores := make([]float64, d.NumItems())
	n := d.NumRows()
	classCounts := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		classCounts[int(l)]++
	}
	baseH := entropy(classCounts)
	for i := 0; i < d.NumItems(); i++ {
		present := make([]int, d.NumClasses())
		d.ItemRows(i).ForEach(func(r int) bool {
			present[int(d.Labels[r])]++
			return true
		})
		absent := make([]int, d.NumClasses())
		pn := 0
		for c := range present {
			absent[c] = classCounts[c] - present[c]
			pn += present[c]
		}
		if pn == 0 || pn == n {
			scores[i] = 0
			continue
		}
		h := float64(pn)/float64(n)*entropy(present) +
			float64(n-pn)/float64(n)*entropy(absent)
		scores[i] = baseH - h
	}
	return scores
}

func entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// FindAll runs Find for every group concurrently (bounded by
// GOMAXPROCS workers) and returns results in group order, so callers
// stay deterministic. Groups share the dataset read-only.
func FindAll(d *dataset.Dataset, groups []*rules.Group, cfg Config) [][]*rules.Rule {
	out := make([][]*rules.Rule, len(groups))
	if len(groups) == 0 {
		return out
	}
	// Compute the default scores once, before fan-out, rather than once
	// per group.
	if cfg.ItemScore == nil {
		cfg.ItemScore = DefaultItemScores(d)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(groups) {
					return
				}
				out[i] = Find(d, groups[i], cfg)
			}
		}()
	}
	wg.Wait()
	return out
}
