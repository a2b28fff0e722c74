// Package farmer implements the FARMER baseline [6]: row-enumeration
// mining of ALL interesting rule groups satisfying static minimum
// support and minimum confidence thresholds — the algorithm MineTopkRGS
// is evaluated against in Figure 6.
//
// Three interchangeable engines reproduce the paper's three runtime
// series:
//
//   - EngineNaive: materialized projected transposed tables scanned
//     tuple by tuple — the original FARMER's pointer-based tables;
//   - EnginePrefix: the prefix-tree representation of Section 4.2 —
//     the paper's "FARMER+prefix";
//   - EngineBitset: the word-parallel set-algebra engine shared with
//     MineTopkRGS — FARMER's pruning on this codebase's fastest
//     substrate, isolating the effect of top-k pruning in ablations.
//
// All engines produce identical rule groups; they differ only in work
// per node.
package farmer

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/prefixtree"
	"repro/internal/rules"
	"repro/internal/transpose"
)

// Engine selects the projected-table implementation.
type Engine int

const (
	// EngineBitset uses word-parallel row sets (fastest).
	EngineBitset Engine = iota
	// EnginePrefix uses the Figure 4 prefix tree.
	EnginePrefix
	// EngineNaive materializes projected transposed tables.
	EngineNaive
)

// String names the engine for reports.
func (e Engine) String() string {
	switch e {
	case EngineBitset:
		return "bitset"
	case EnginePrefix:
		return "prefix"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Config parameterizes a FARMER run.
type Config struct {
	Minsup  int     // absolute minimum support (consequent-class rows)
	Minconf float64 // minimum confidence; 0 disables confidence pruning
	// MinChi is FARMER's third interestingness measure: the minimum
	// chi-square statistic of the rule's 2x2 contingency table (rows
	// covered vs not, class vs not). 0 disables it.
	MinChi float64
	Engine Engine
	// MaxNodes, when positive, aborts the search after that many
	// enumeration nodes; Result.Aborted reports the cutoff. Used to
	// bound baseline runs that would not otherwise terminate.
	MaxNodes int
	// Progress, when non-nil, receives engine.ProgressSnapshots from the
	// bitset engine every engine.DefaultProgressEvery nodes (the table
	// engines do not report progress).
	Progress engine.ProgressFunc
}

// Result holds the discovered rule groups.
type Result struct {
	// Groups are the upper bounds of all rule groups with support >=
	// Minsup and confidence >= Minconf, sorted by significance. Row sets
	// use original row ids.
	Groups  []*rules.Group
	Stats   engine.Stats
	Aborted bool // true when MaxNodes stopped the search early
}

// Mine discovers all interesting rule groups of class cls in d. It is
// MineContext without cancellation.
func Mine(d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cls, cfg) // vetsuite:allow ctxflow -- Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the search at the next node and returns ctx.Err() with a
// nil Result. A Config.MaxNodes abort is not an error — the partial
// Result is returned with Aborted set.
func MineContext(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("farmer: minsup must be >= 1, got %d", cfg.Minsup)
	}
	if cfg.Minconf < 0 || cfg.Minconf > 1 {
		return nil, fmt.Errorf("farmer: minconf %v outside [0,1]", cfg.Minconf)
	}
	if cfg.MinChi < 0 {
		return nil, fmt.Errorf("farmer: minchi %v negative", cfg.MinChi)
	}
	if int(cls) < 0 || int(cls) >= d.NumClasses() {
		return nil, fmt.Errorf("farmer: class %d outside [0,%d)", cls, d.NumClasses())
	}
	pos := d.RowSet(cls)
	numPos := pos.Count()
	if numPos == 0 {
		return nil, fmt.Errorf("farmer: no rows of class %s", d.ClassNames[cls])
	}

	// Frequent items and class dominant order, as in MineTopkRGS.
	var freqItems []int
	for i := 0; i < d.NumItems(); i++ {
		if d.ItemRows(i).IntersectionCount(pos) >= cfg.Minsup {
			freqItems = append(freqItems, i)
		}
	}
	if len(freqItems) == 0 {
		return &Result{}, nil
	}
	order := classDominantOrder(d, cls, freqItems)

	switch cfg.Engine {
	case EngineBitset:
		return mineBitset(ctx, d, cls, cfg, freqItems, order, numPos)
	case EnginePrefix, EngineNaive:
		return mineTable(ctx, d, cls, cfg, freqItems, order, numPos)
	default:
		return nil, fmt.Errorf("farmer: unknown engine %d", cfg.Engine)
	}
}

// classDominantOrder returns reordered-index -> original-row with
// positives first, each class sorted ascending by frequent-item count.
func classDominantOrder(d *dataset.Dataset, cls dataset.Label, freqItems []int) []int {
	isFreq := make([]bool, d.NumItems())
	for _, it := range freqItems {
		isFreq[it] = true
	}
	count := make([]int, d.NumRows())
	for r, row := range d.Rows {
		for _, it := range row {
			if isFreq[it] {
				count[r]++
			}
		}
	}
	var pos, neg []int
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			pos = append(pos, r)
		} else {
			neg = append(neg, r)
		}
	}
	insertionSortByCount := func(rows []int) {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && count[rows[j]] < count[rows[j-1]]; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
	}
	insertionSortByCount(pos)
	insertionSortByCount(neg)
	return append(pos, neg...)
}

// staticVisitor plugs FARMER's fixed thresholds into the shared engine.
type staticVisitor struct {
	minsup   int
	minconf  float64
	minchi   float64
	totalPos int // training rows of the consequent class
	totalNeg int
	cls      dataset.Label
	groups   []*rules.Group
}

// chi2 computes the chi-square statistic of the rule's 2x2 table:
// (covered pos, covered neg) vs (uncovered pos, uncovered neg).
func (v *staticVisitor) chi2(xp, xn int) float64 {
	a, b := float64(xp), float64(xn)
	c, d := float64(v.totalPos-xp), float64(v.totalNeg-xn)
	n := a + b + c + d
	den := (a + b) * (c + d) * (a + c) * (b + d)
	if den == 0 {
		return 0
	}
	diff := a*d - b*c
	return n * diff * diff / den
}

// chiUpperBound bounds the chi-square of every rule group in the
// subtree. Descendant groups have xp' in [xpNow, xpMax] (positives only
// join via the remaining positive candidates) and xn' in [xnNow, xnMax]
// (negatives already absorbed never leave; at most the remaining
// negative candidates join). For fixed margins the statistic has its
// minimum on the independence line and increases monotonically away
// from it along each axis, so its maximum over the feasible box is
// attained at one of the four corners.
func (v *staticVisitor) chiUpperBound(xpNow, xnNow, xpMax, xnMax int) float64 {
	best := 0.0
	for _, xp := range [2]int{xpNow, xpMax} {
		for _, xn := range [2]int{xnNow, xnMax} {
			if c := v.chi2(xp, xn); c > best {
				best = c
			}
		}
	}
	return best
}

// PruneOnEntry is the static loose-bound check: no row's list is
// consulted, so the threshold is irrelevant.
func (v *staticVisitor) PruneOnEntry(_ *bitset.Set, candPos []int, xp, xn, rn int) bool {
	return v.PruneBeforeScan(engine.Threshold{}, xp, xn, len(candPos), rn)
}

func (v *staticVisitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	return engine.Threshold{}
}

func (v *staticVisitor) PruneBeforeScan(_ engine.Threshold, xp, xn, rp, rn int) bool {
	ubSup := xp + rp
	if ubSup < v.minsup {
		return true
	}
	if v.minconf > 0 {
		if ubConf := float64(ubSup) / float64(ubSup+xn); ubConf < v.minconf {
			return true
		}
	}
	if v.minchi > 0 && v.chiUpperBound(xp, xn, ubSup, xn+rn) < v.minchi {
		return true
	}
	return false
}

func (v *staticVisitor) PruneAfterScan(_ engine.Threshold, xp, xn, mp, rn int) bool {
	ubSup := xp + mp
	if ubSup < v.minsup {
		return true
	}
	if v.minconf > 0 {
		if ubConf := float64(ubSup) / float64(ubSup+xn); ubConf < v.minconf {
			return true
		}
	}
	if v.minchi > 0 && v.chiUpperBound(xp, xn, ubSup, xn+rn) < v.minchi {
		return true
	}
	return false
}

func (v *staticVisitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	if xp < v.minsup {
		return
	}
	conf := float64(xp) / float64(xp+xn)
	if conf < v.minconf {
		return
	}
	if v.minchi > 0 && v.chi2(xp, xn) < v.minchi {
		return
	}
	// items and rows alias the engine's arena: the retained group copies
	// both at the event boundary.
	v.groups = append(v.groups, &rules.Group{
		Antecedent: append([]int(nil), items...),
		Class:      v.cls,
		Support:    xp,
		Confidence: conf,
		Rows:       rows.Clone(),
	})
}

func mineBitset(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config, freqItems, order []int, numPos int) (*Result, error) {
	newID := make([]int, d.NumRows())
	for newR, origR := range order {
		newID[origR] = newR
	}
	itemRows := make([]*bitset.Set, d.NumItems())
	for _, it := range freqItems {
		s := bitset.New(d.NumRows())
		d.ItemRows(it).ForEach(func(origR int) bool {
			s.Add(newID[origR])
			return true
		})
		itemRows[it] = s
	}
	v := &staticVisitor{
		minsup: cfg.Minsup, minconf: cfg.Minconf, minchi: cfg.MinChi,
		totalPos: numPos, totalNeg: d.NumRows() - numPos, cls: cls,
	}
	eng := &engine.Enumerator{
		NumRows:  d.NumRows(),
		NumPos:   numPos,
		ItemRows: itemRows,
		Visitor:  v,
		MaxNodes: cfg.MaxNodes,
		Progress: cfg.Progress,
	}
	stats, err := eng.Run(ctx, freqItems)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats, Aborted: stats.Aborted}
	for _, g := range v.groups {
		remapped := bitset.New(d.NumRows())
		g.Rows.ForEach(func(newR int) bool {
			remapped.Add(order[newR])
			return true
		})
		g.Rows = remapped
		res.Groups = append(res.Groups, g)
	}
	rules.SortGroups(res.Groups)
	return res, nil
}

// tableMiner is the shared recursion for the naive and prefix engines.
// It works on the reordered dataset (positives first).
type tableMiner struct {
	cfg     Config
	cls     dataset.Label
	numRows int
	numPos  int
	// rowItems[r] = frequent items of reordered row r, as a bitset over
	// items; used for the backward closedness check.
	rowItems []*bitset.Set
	numItems int

	groups []*rules.Group
	stats  engine.Stats
	budget *engine.Budget
}

// node abstracts the two table representations.
type node interface {
	// analyze returns I(X) (unsorted item ids), freq(r) per reordered
	// row, and the tuple count, in one pass over the representation.
	analyze() (items []int, freq []int, tuples int)
	// projectAll returns child nodes for the given candidate rows
	// (parallel to cands). The naive engine materializes one projected
	// table per candidate; the prefix engine builds every view in a
	// single shared-prefix traversal.
	projectAll(cands []int) []node
}

type flatNode struct{ t *transpose.Table }

func (n flatNode) analyze() ([]int, []int, int) {
	items := make([]int, len(n.t.Tuples))
	f := make([]int, n.t.NumRows)
	for i, tu := range n.t.Tuples {
		items[i] = tu.Item
		for _, r := range tu.Rows {
			f[r]++
		}
	}
	return items, f, len(n.t.Tuples)
}
func (n flatNode) projectAll(cands []int) []node {
	out := make([]node, len(cands))
	for i, r := range cands {
		out[i] = flatNode{n.t.Project(r)}
	}
	return out
}

type prefixNode struct{ t *prefixtree.Tree }

func (n prefixNode) analyze() ([]int, []int, int) {
	items, freq := n.t.Analyze()
	return items, freq, n.t.TupleCount()
}
func (n prefixNode) projectAll(cands []int) []node {
	views := n.t.ProjectAll()
	out := make([]node, len(cands))
	for i, r := range cands {
		v := views[r]
		if v == nil {
			v = &prefixtree.Tree{NumRows: n.t.NumRows}
		}
		out[i] = prefixNode{v}
	}
	return out
}

func mineTable(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config, freqItems, order []int, numPos int) (*Result, error) {
	reordered := d.Reorder(order)
	isFreq := make([]bool, d.NumItems())
	for _, it := range freqItems {
		isFreq[it] = true
	}
	// Restrict rows to frequent items for the transposed table.
	trimmed := &dataset.Dataset{
		Items:      reordered.Items,
		Rows:       make([][]int, reordered.NumRows()),
		Labels:     reordered.Labels,
		ClassNames: reordered.ClassNames,
	}
	for r, row := range reordered.Rows {
		var keep []int
		for _, it := range row {
			if isFreq[it] {
				keep = append(keep, it)
			}
		}
		trimmed.Rows[r] = keep
	}

	m := &tableMiner{
		cfg:      cfg,
		cls:      cls,
		numRows:  d.NumRows(),
		numPos:   numPos,
		numItems: d.NumItems(),
	}
	m.rowItems = make([]*bitset.Set, trimmed.NumRows())
	for r := 0; r < trimmed.NumRows(); r++ {
		m.rowItems[r] = trimmed.RowItemSet(r)
	}

	tt := transpose.FromDataset(trimmed)
	var root node
	if cfg.Engine == EnginePrefix {
		root = prefixNode{prefixtree.Build(tt)}
	} else {
		root = flatNode{tt}
	}

	res := &Result{}
	m.budget = engine.NewBudget(ctx, cfg.MaxNodes)
	switch err := m.enumerate(root, bitset.New(m.numRows), 0); {
	case errors.Is(err, engine.ErrNodeBudget):
		res.Aborted = true
		m.stats.Aborted = true
	case err != nil:
		return nil, err
	}

	res.Stats = m.stats
	for _, g := range m.groups {
		remapped := bitset.New(m.numRows)
		g.Rows.ForEach(func(newR int) bool {
			remapped.Add(order[newR])
			return true
		})
		g.Rows = remapped
		res.Groups = append(res.Groups, g)
	}
	rules.SortGroups(res.Groups)
	return res, nil
}

// enumerate visits node n representing TT|x with candidates >= minNext.
func (m *tableMiner) enumerate(n node, x *bitset.Set, minNext int) error {
	m.stats.Nodes++
	if err := m.budget.Charge(1); err != nil {
		return err
	}
	items, freq, tuples := n.analyze()
	if len(items) == 0 {
		return nil
	}

	// Backward closedness check against rows ordered before minNext:
	// I(X) contained in an earlier row not in X means a duplicate.
	itemSet := bitset.New(m.numItems)
	for _, it := range items {
		itemSet.Add(it)
	}
	for r := 0; r < minNext; r++ {
		if !x.Contains(r) && m.rowItems[r].ContainsAll(itemSet) {
			m.stats.BackwardPruned++
			return nil
		}
	}

	// Forward closure and candidate split.
	closed := x.Clone()
	xp := x.CountBelow(m.numPos)
	xn := x.Count() - xp
	var cands []int
	mp := 0
	for r := minNext; r < m.numRows; r++ {
		if x.Contains(r) || freq[r] == 0 {
			continue
		}
		if freq[r] == tuples {
			closed.Add(r)
			if r < m.numPos {
				xp++
			} else {
				xn++
			}
			continue
		}
		cands = append(cands, r)
		if r < m.numPos {
			mp++
		}
	}

	// Static threshold pruning (tight bounds).
	ubSup := xp + mp
	if ubSup < m.cfg.Minsup {
		m.stats.PrunedAfterScan++
		return nil
	}
	if m.cfg.Minconf > 0 {
		if ubConf := float64(ubSup) / float64(ubSup+xn); ubConf < m.cfg.Minconf {
			m.stats.PrunedAfterScan++
			return nil
		}
	}

	// Report the group at this node.
	if xp >= m.cfg.Minsup {
		conf := float64(xp) / float64(xp+xn)
		chiOK := true
		if m.cfg.MinChi > 0 {
			sv := staticVisitor{totalPos: m.numPos, totalNeg: m.numRows - m.numPos}
			chiOK = sv.chi2(xp, xn) >= m.cfg.MinChi
		}
		if conf >= m.cfg.Minconf && chiOK {
			m.stats.Groups++
			ant := append([]int(nil), items...)
			sort.Ints(ant)
			m.groups = append(m.groups, &rules.Group{
				Antecedent: ant,
				Class:      m.cls,
				Support:    xp,
				Confidence: conf,
				Rows:       closed.Clone(),
			})
		}
	}

	children := n.projectAll(cands)
	for i, r := range cands {
		childX := closed.Clone()
		childX.Add(r)
		if err := m.enumerate(children[i], childX, r+1); err != nil {
			return err
		}
	}
	return nil
}
