// Package rules defines association rules over discretized gene
// expression data, rule groups (Definition 2.1) represented by their
// unique upper bound (Lemma 2.1), the significance order of Definition
// 2.2, the CBA precedence order, and per-row top-k lists.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// Rule is a single association rule A -> C.
type Rule struct {
	Antecedent []int // sorted item ids
	Class      dataset.Label
	Support    int     // |R(A ∪ C)|
	Confidence float64 // |R(A ∪ C)| / |R(A)|
}

// Matches reports whether the rule's antecedent is contained in the
// given row item set.
func (r *Rule) Matches(rowItems *bitset.Set) bool {
	for _, it := range r.Antecedent {
		if !rowItems.Contains(it) {
			return false
		}
	}
	return true
}

// String renders the rule with dataset item names when d is non-nil.
func (r *Rule) Render(d *dataset.Dataset) string {
	var ant string
	if d != nil {
		ant = strings.Join(d.ItemNames(r.Antecedent), " ")
	} else {
		ant = fmt.Sprint(r.Antecedent)
	}
	cls := fmt.Sprint(r.Class)
	if d != nil {
		cls = d.ClassNames[r.Class]
	}
	return fmt.Sprintf("%s -> %s (sup=%d conf=%.3f)", ant, cls, r.Support, r.Confidence)
}

// Group is a rule group identified by its unique upper bound rule: the
// closed antecedent shared by every rule in the group.
type Group struct {
	Antecedent []int // the upper bound I(R(A)), sorted item ids
	Class      dataset.Label
	Support    int         // rows of class Class in Rows
	Confidence float64     // Support / |Rows|
	Rows       *bitset.Set // antecedent support set R(A); may be nil for dummies
}

// Upper returns the group's upper bound as a Rule.
func (g *Group) Upper() *Rule {
	return &Rule{
		Antecedent: g.Antecedent,
		Class:      g.Class,
		Support:    g.Support,
		Confidence: g.Confidence,
	}
}

// CompareConf is the one comparison semantics for confidence (and other
// score) values across the miner: it returns +1 if a is the stronger
// confidence, -1 if b is, and 0 on a tie.
//
// Confidences in this codebase are always ratios xp/n of small
// non-negative integers (n > 0), so they are correctly-rounded IEEE
// quotients of exact reals: two confidences representing the same
// rational round to the same float64, and exact comparison is the right
// semantics — no epsilon, which would break the strict weak ordering
// the sort comparators and top-k thresholds rely on. Centralizing the
// comparison here (enforced by the vetsuite floatcmp analyzer) keeps
// every tie-break in MineTopkRGS, CBA precedence and top-k list
// maintenance consistent. NaN never arises for well-formed groups; if
// passed, NaN compares as tying with everything, which callers must not
// rely on.
func CompareConf(a, b float64) int {
	if a > b {
		return 1
	}
	if a < b {
		return -1
	}
	return 0
}

// MoreSignificant implements Definition 2.2: g is more significant than
// h iff g.conf > h.conf, or confidences tie and g.sup > h.sup.
func (g *Group) MoreSignificant(h *Group) bool {
	if c := CompareConf(g.Confidence, h.Confidence); c != 0 {
		return c > 0
	}
	return g.Support > h.Support
}

// SameSignificance reports equal (conf, sup).
func (g *Group) SameSignificance(h *Group) bool {
	return CompareConf(g.Confidence, h.Confidence) == 0 && g.Support == h.Support
}

// Covers reports whether the group's antecedent is contained in row
// items.
func (g *Group) Covers(rowItems *bitset.Set) bool {
	for _, it := range g.Antecedent {
		if !rowItems.Contains(it) {
			return false
		}
	}
	return true
}

// Render pretty-prints the group's upper bound.
func (g *Group) Render(d *dataset.Dataset) string { return g.Upper().Render(d) }

// Key returns a canonical identity for the group's antecedent+class,
// usable as a map key.
func (g *Group) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", g.Class)
	for _, it := range g.Antecedent {
		fmt.Fprintf(&b, "%d,", it)
	}
	return b.String()
}

// GroupFromItems builds the rule group generated by an itemset: the
// antecedent is the closure I(R(items)), the support set R(items), and
// support/confidence are counted for the given consequent class.
func GroupFromItems(d *dataset.Dataset, items []int, cls dataset.Label) *Group {
	sup := d.SupportSet(items)
	xp := 0
	sup.ForEach(func(r int) bool {
		if d.Labels[r] == cls {
			xp++
		}
		return true
	})
	conf := 0.0
	if n := sup.Count(); n > 0 {
		conf = float64(xp) / float64(n)
	}
	return &Group{
		Antecedent: d.CommonItems(sup),
		Class:      cls,
		Support:    xp,
		Confidence: conf,
		Rows:       sup,
	}
}

// CBALess is the CBA precedence "≺" of Section 2.2 Step 2 on individual
// rules: higher confidence first, then higher support, then earlier
// discovery — which for breadth-first generation means shorter
// antecedents first; we break remaining ties lexicographically so the
// order is total and deterministic.
func CBALess(a, b *Rule) bool {
	if c := CompareConf(a.Confidence, b.Confidence); c != 0 {
		return c > 0
	}
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if len(a.Antecedent) != len(b.Antecedent) {
		return len(a.Antecedent) < len(b.Antecedent)
	}
	for i := range a.Antecedent {
		if a.Antecedent[i] != b.Antecedent[i] {
			return a.Antecedent[i] < b.Antecedent[i]
		}
	}
	return a.Class < b.Class
}

// SortCBA sorts rules by CBA precedence.
func SortCBA(rs []*Rule) {
	sort.SliceStable(rs, func(i, j int) bool { return CBALess(rs[i], rs[j]) })
}

// GroupLess orders groups by significance (Definition 2.2), breaking
// ties deterministically by shorter antecedent then lexicographic
// content, so sorted group lists are stable across runs.
func GroupLess(a, b *Group) bool {
	if c := CompareConf(a.Confidence, b.Confidence); c != 0 {
		return c > 0
	}
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if len(a.Antecedent) != len(b.Antecedent) {
		return len(a.Antecedent) < len(b.Antecedent)
	}
	for i := range a.Antecedent {
		if a.Antecedent[i] != b.Antecedent[i] {
			return a.Antecedent[i] < b.Antecedent[i]
		}
	}
	return false
}

// SortGroups sorts groups by GroupLess.
func SortGroups(gs []*Group) {
	sort.SliceStable(gs, func(i, j int) bool { return GroupLess(gs[i], gs[j]) })
}

// TopKList maintains the k most significant rule groups seen for one
// row (the ζ_ri of Algorithm MineTopkRGS). The zero value is unusable;
// create lists with NewTopKList.
type TopKList struct {
	k      int
	groups []*Group // sorted, most significant first; length <= k
}

// NewTopKList returns an empty list with capacity k. k must be >= 1.
func NewTopKList(k int) *TopKList {
	if k < 1 {
		// vetsuite:allow panic -- programmer-error precondition, not data-dependent
		panic(fmt.Sprintf("rules: top-k list needs k >= 1, got %d", k))
	}
	return &TopKList{k: k}
}

// K returns the list's capacity.
func (l *TopKList) K() int { return l.k }

// Groups returns the current contents, most significant first. The
// returned slice is the internal one; callers must not mutate it.
func (l *TopKList) Groups() []*Group { return l.groups }

// Len returns the number of stored groups.
func (l *TopKList) Len() int { return len(l.groups) }

// Threshold returns the confidence and support a new group must beat to
// enter the list (Step 8's γ_rik). While the list is not full, both are
// 0 — every group with positive confidence qualifies.
func (l *TopKList) Threshold() (conf float64, sup int) {
	if len(l.groups) < l.k {
		return 0, 0
	}
	last := l.groups[len(l.groups)-1]
	return last.Confidence, last.Support
}

// Qualifies reports whether a group with the given confidence and
// support would enter the list (Step 13's condition).
func (l *TopKList) Qualifies(conf float64, sup int) bool {
	tc, ts := l.Threshold()
	if c := CompareConf(conf, tc); c != 0 {
		return c > 0
	}
	return sup > ts
}

// Consider inserts g if it qualifies, evicting the least significant
// group when the list is full. It reports whether g was inserted.
func (l *TopKList) Consider(g *Group) bool {
	if len(l.groups) >= l.k && !l.Qualifies(g.Confidence, g.Support) {
		return false
	}
	pos := sort.Search(len(l.groups), func(i int) bool {
		return GroupLess(g, l.groups[i])
	})
	l.groups = append(l.groups, nil)
	copy(l.groups[pos+1:], l.groups[pos:])
	l.groups[pos] = g
	if len(l.groups) > l.k {
		l.groups = l.groups[:l.k]
	}
	return pos < l.k
}

// Replace substitutes the group at index i (used by the single-item
// initialization optimization: a seed item that turns out to be a lower
// bound of a discovered upper bound is replaced in place, preserving
// rank because support and confidence are identical).
func (l *TopKList) Replace(i int, g *Group) {
	if i < 0 || i >= len(l.groups) {
		// vetsuite:allow panic -- programmer-error precondition, not data-dependent
		panic(fmt.Sprintf("rules: Replace index %d out of range [0,%d)", i, len(l.groups)))
	}
	l.groups[i] = g
}
