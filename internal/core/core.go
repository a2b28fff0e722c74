// Package core implements MineTopkRGS (Figure 3), the paper's primary
// contribution: discovery of the top-k covering rule groups for every
// row of a discretized gene expression dataset, with a user-specified
// minimum support but no minimum confidence — the confidence threshold
// is derived dynamically from the per-row top-k lists and drives the
// top-k pruning of Section 4.1.1.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// Config controls MineTopkRGS. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// K is the number of covering rule groups kept per row.
	K int
	// Minsup is the absolute minimum support (count of consequent-class
	// rows containing the antecedent).
	Minsup int

	// SeedInit enables the single-item initialization optimization of
	// Section 4.1.1: per-row lists start from single-item rule groups
	// instead of dummy (0, 0) entries, raising pruning thresholds early.
	SeedInit bool
	// TopKPruning enables the dynamic minimum-confidence pruning. Turning
	// it off (ablation) leaves only support-based pruning.
	TopKPruning bool
	// BackwardPruning enables the closedness check of Section 4.1.2.
	// Turning it off (ablation) re-discovers groups redundantly.
	BackwardPruning bool
	// SortRowsByItemCount enables the ORD refinement that orders rows of
	// the same class by ascending frequent-item count.
	SortRowsByItemCount bool
	// DynamicMinsup enables raising the support threshold once every
	// row's k groups all reach 100% confidence.
	DynamicMinsup bool
	// MaxNodes, when positive, aborts the enumeration after that many
	// nodes; Result.Stats.Aborted reports the cutoff and the per-row
	// lists hold the best groups seen so far (possibly incomplete).
	MaxNodes int
	// MinConf, when positive, is a static minimum-confidence floor: rule
	// groups with confidence strictly below it are discarded, and the
	// dynamic top-k threshold never drops below (MinConf, 0), so a row
	// with fewer than k groups at or above the floor gets a short list.
	// Groups tied with the floor are kept.
	MinConf float64
	// Workers is ignored: every run enumerates on the calling
	// goroutine.
	//
	// Deprecated: the intra-tree parallel mode is gone. The field stays
	// only because the repository benchmark (benchmark/layers.go) still
	// sets it; drop it together with that use.
	Workers int
	// Progress, when non-nil, receives engine.ProgressSnapshots every
	// ProgressEvery nodes (0 = engine.DefaultProgressEvery). The
	// snapshot's MinconfFloor is the weakest per-row top-k confidence
	// threshold — the dynamic minconf the search currently prunes with.
	Progress      engine.ProgressFunc
	ProgressEvery int
}

// DefaultConfig returns the paper's configuration with all
// optimizations enabled.
func DefaultConfig(minsup, k int) Config {
	return Config{
		K:                   k,
		Minsup:              minsup,
		SeedInit:            true,
		TopKPruning:         true,
		BackwardPruning:     true,
		SortRowsByItemCount: true,
		DynamicMinsup:       true,
	}
}

// Result is the output of Mine.
type Result struct {
	// PerRow maps each consequent-class row (original row id) to its
	// top-k covering rule groups, most significant first. Rows with no
	// qualifying group map to an empty slice.
	PerRow map[int][]*rules.Group
	// Groups is the deduplicated union of all per-row groups, sorted by
	// significance. Group antecedents use dataset item ids; Rows bitsets
	// use original row ids.
	Groups []*rules.Group
	// Stats reports the enumeration work (node counts, prunes).
	Stats engine.Stats
	// NumFrequentItems is the item count after Step 1's frequency filter.
	NumFrequentItems int
}

// Mine discovers the top-k covering rule groups for every row of class
// cls in d (Algorithm MineTopkRGS). It is MineContext without
// cancellation.
func Mine(d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cls, cfg) //vet:ignore ctxflow Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the enumeration at the next node and returns ctx.Err()
// with a nil Result. A Config.MaxNodes abort is not an error — the
// partial Result is returned with Stats.Aborted set.
func MineContext(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("core: minsup must be >= 1, got %d", cfg.Minsup)
	}
	if int(cls) < 0 || int(cls) >= d.NumClasses() {
		return nil, fmt.Errorf("core: class %d outside [0,%d)", cls, d.NumClasses())
	}

	// Step 1: frequent items — positive-class support >= minsup.
	posAll := d.RowSet(cls)
	numPos := posAll.Count()
	if numPos == 0 {
		return nil, fmt.Errorf("core: no rows of class %s", d.ClassNames[cls])
	}
	var freqItems []int
	for i := 0; i < d.NumItems(); i++ {
		if d.ItemRows(i).IntersectionCount(posAll) >= cfg.Minsup {
			freqItems = append(freqItems, i)
		}
	}

	res := &Result{PerRow: make(map[int][]*rules.Group)}
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			res.PerRow[r] = nil
		}
	}
	res.NumFrequentItems = len(freqItems)
	if len(freqItems) == 0 {
		return res, nil
	}

	// Steps 2-3: class dominant order (positives first); within a class,
	// ascending frequent-item count (Section 4.1.2).
	order := rowOrder(d, cls, freqItems, cfg.SortRowsByItemCount)
	// itemRows over reordered row ids.
	itemRows := make([]*bitset.Set, d.NumItems())
	newID := make([]int, d.NumRows()) // original -> reordered
	for newR, origR := range order {
		newID[origR] = newR
	}
	for _, it := range freqItems {
		s := bitset.New(d.NumRows())
		d.ItemRows(it).ForEach(func(origR int) bool {
			s.Add(newID[origR])
			return true
		})
		itemRows[it] = s
	}

	// Step 4: per-positive-row top-k lists (reordered ids 0..numPos-1).
	v := newTopkVisitor(cfg, cls, numPos)
	if cfg.SeedInit {
		v.seed(itemRows, freqItems, numPos)
	}

	// Deduplicate items sharing a support set: they are interchangeable
	// during enumeration (identical projections and closures); one
	// representative runs in the engine and OnGroup expands antecedents
	// back to the full item lists.
	reps, members := dedupItems(itemRows, freqItems)
	v.members = members

	// Steps 5-14: depth-first enumeration.
	eng := &engine.Enumerator{
		NumRows:         d.NumRows(),
		NumPos:          numPos,
		ItemRows:        itemRows,
		Visitor:         v,
		DisableBackward: !cfg.BackwardPruning,
		MaxNodes:        cfg.MaxNodes,
		Progress:        cfg.Progress,
		ProgressEvery:   cfg.ProgressEvery,
	}
	stats, err := eng.Run(ctx, reps)
	if err != nil {
		return nil, err
	}
	res.Stats = stats

	// Post-pass: replace remaining single-item seeds with the upper
	// bound of their rule group (I(R(item)) over frequent items).
	v.resolveSeeds(itemRows, freqItems)

	// Map results back to original row ids.
	seen := make(map[*rules.Group]bool)
	for p := 0; p < numPos; p++ {
		origRow := order[p]
		gs := v.lists[p].Groups()
		out := make([]*rules.Group, len(gs))
		for i, g := range gs {
			if !seen[g] {
				seen[g] = true
				g.Rows = remapRows(g.Rows, order)
				res.Groups = append(res.Groups, g)
			}
			out[i] = g
		}
		res.PerRow[origRow] = out
	}
	rules.SortGroups(res.Groups)
	return res, nil
}

// dedupItems groups frequent items by identical support sets, returning
// one representative per group and a members map (representative ->
// full sorted member list). Support sets are bucketed by their 64-bit
// hash with an Equal check resolving collisions — Set.Key's string
// materialization dominated heap profiles on wide datasets.
func dedupItems(itemRows []*bitset.Set, freqItems []int) ([]int, map[int][]int) {
	byHash := map[uint64][]int{} // rowset hash -> representative items
	members := map[int][]int{}
	var reps []int
	for _, it := range freqItems {
		h := itemRows[it].Hash64()
		rep := -1
		for _, cand := range byHash[h] {
			if itemRows[cand].Equal(itemRows[it]) {
				rep = cand
				break
			}
		}
		if rep < 0 {
			byHash[h] = append(byHash[h], it)
			reps = append(reps, it)
			rep = it
		}
		members[rep] = append(members[rep], it)
	}
	return reps, members
}

// rowOrder returns the ORD permutation: reordered index -> original row.
func rowOrder(d *dataset.Dataset, cls dataset.Label, freqItems []int, sortByCount bool) []int {
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
	if sortByCount {
		byCount := func(rows []int) {
			sort.SliceStable(rows, func(i, j int) bool { return count[rows[i]] < count[rows[j]] })
		}
		byCount(pos)
		byCount(neg)
	}
	return append(pos, neg...)
}

// remapRows converts a reordered-id row set to original ids.
func remapRows(s *bitset.Set, order []int) *bitset.Set {
	if s == nil {
		return nil
	}
	out := bitset.New(s.Len())
	s.ForEach(func(newR int) bool {
		out.Add(order[newR])
		return true
	})
	return out
}

// topkVisitor implements the Steps 8/9/11/13 logic of Figure 3.
type topkVisitor struct {
	cfg    Config
	cls    dataset.Label
	numPos int

	lists     []*rules.TopKList // per reordered positive row
	effMinsup int               // dynamically raised when DynamicMinsup

	// thConf and thSup hold lists[p].Threshold() for each positive row,
	// refreshed by consider, the one place a list changes: the per-node
	// threshold scans read two flat slices instead of each list's last
	// group.
	thConf []float64
	thSup  []int

	// provisional single-item seeds: group -> item id, resolved after
	// mining into their true upper bounds.
	provisional map[*rules.Group]int

	// members expands a representative item to all items sharing its
	// support set (OnGroup antecedent expansion).
	members map[int][]int

	updateCalls int
}

// newTopkVisitor returns a visitor with an empty top-k list per
// positive row.
func newTopkVisitor(cfg Config, cls dataset.Label, numPos int) *topkVisitor {
	v := &topkVisitor{
		cfg:       cfg,
		cls:       cls,
		numPos:    numPos,
		effMinsup: cfg.Minsup,
		lists:     make([]*rules.TopKList, numPos),
		thConf:    make([]float64, numPos),
		thSup:     make([]int, numPos),
	}
	for p := range v.lists {
		v.lists[p] = rules.NewTopKList(cfg.K)
	}
	return v
}

// consider offers g to row p's list and refreshes the row's threshold.
func (v *topkVisitor) consider(p int, g *rules.Group) {
	v.lists[p].Consider(g)
	v.thConf[p], v.thSup[p] = v.lists[p].Threshold()
}

// admits reports whether a group with the given confidence and support
// would enter row p's list (TopKList.Qualifies on the flat threshold).
//
//vet:allocfree
func (v *topkVisitor) admits(p int, conf float64, sup int) bool {
	return qualifies(engine.Threshold{Conf: v.thConf[p], Sup: v.thSup[p]}, conf, sup)
}

// MonotoneChildren implements engine.MonotoneChildren. Along a node's
// Step-14 loop a child's support bound (xp plus the positives in
// survivors[i:]) never rises and its negative count never falls, so
// neither its support nor its confidence bound rises. The threshold is
// the node's, effMinsup only rises, and qualifies is monotone in
// (conf, sup), so once PruneBeforeScan prunes a child it prunes every
// later one (TestPruneBeforeScanMonotoneAlongChildren).
func (v *topkVisitor) MonotoneChildren() bool { return true }

// seed installs single-item rule groups into the per-row lists,
// deduplicated by support set so no two seeds of one row belong to the
// same rule group.
func (v *topkVisitor) seed(itemRows []*bitset.Set, freqItems []int, numPos int) {
	v.provisional = make(map[*rules.Group]int)
	byRowset := make(map[uint64][]*rules.Group)
	for _, it := range freqItems {
		rs := itemRows[it]
		h := rs.Hash64()
		dup := false
		for _, g0 := range byRowset[h] {
			if g0.Rows.Equal(rs) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		xp := rs.CountBelow(numPos)
		xn := rs.Count() - xp
		g := &rules.Group{
			Antecedent: []int{it},
			Class:      v.cls,
			Support:    xp,
			Confidence: float64(xp) / float64(xp+xn),
			Rows:       rs.Clone(),
		}
		byRowset[h] = append(byRowset[h], g)
		v.provisional[g] = it
		rs.ForEach(func(p int) bool {
			if p >= numPos {
				return false
			}
			v.consider(p, g)
			return true
		})
	}
}

// resolveSeeds rewrites every provisional seed's antecedent to its rule
// group's upper bound: the set of frequent items whose support contains
// the seed's support set.
func (v *topkVisitor) resolveSeeds(itemRows []*bitset.Set, freqItems []int) {
	for g := range v.provisional {
		var upper []int
		for _, it := range freqItems {
			if itemRows[it].ContainsAll(g.Rows) {
				upper = append(upper, it)
			}
		}
		g.Antecedent = upper
	}
}

// PruneOnEntry is Steps 8-9 at node entry. It prunes iff the loose
// bound (ubConf, ubSup) fails effMinsup or the MinConf floor, or no
// positive row of x or candPos admits it; it stops at the first row
// that does. That is the answer PruneBeforeScan gives against
// UpdateThresholds(X_p, candPos): the threshold there is the lexical
// maximum of the floor (MinConf, 0) and the weakest row's threshold,
// and the bound beats a maximum iff it beats both. It counts as one
// UpdateThresholds call, so effMinsup rises at the same nodes. With no
// positive row at all, ubSup is 0 and the support check has pruned.
//
//vet:allocfree
func (v *topkVisitor) PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool {
	v.updateCalls++
	if v.cfg.DynamicMinsup && v.updateCalls%64 == 0 {
		v.maybeRaiseMinsup()
	}
	ubSup := xp + len(candPos)
	if ubSup < v.effMinsup {
		return true
	}
	if !v.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	if v.cfg.MinConf > 0 && !qualifies(engine.Threshold{Conf: v.cfg.MinConf}, ubConf, ubSup) {
		return true
	}
	for _, p := range candPos {
		if v.admits(p, ubConf, ubSup) {
			return false
		}
	}
	admitted := false
	x.ForEach(func(p int) bool {
		if p >= v.numPos {
			return false
		}
		admitted = v.admits(p, ubConf, ubSup)
		return !admitted
	})
	return !admitted
}

// UpdateThresholds is the Step 8 threshold, built once per node at
// Step 11: the weakest (conf, sup) threshold across the rows reachable
// from the current node.
func (v *topkVisitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	v.updateCalls++
	if v.cfg.DynamicMinsup && v.updateCalls%64 == 0 {
		v.maybeRaiseMinsup()
	}
	if !v.cfg.TopKPruning {
		return engine.Threshold{}
	}
	minC := math.Inf(1)
	minS := math.MaxInt
	scan := func(rs []int) {
		for _, p := range rs {
			c, s := v.thConf[p], v.thSup[p]
			if c < minC || (c == minC && s < minS) {
				minC, minS = c, s
			}
		}
	}
	scan(xPos)
	scan(candPos)
	if math.IsInf(minC, 1) {
		minC, minS = 0, 0 // no reachable positive rows: node is sterile anyway
	}
	// The static floor clamps the dynamic threshold from below. Sup 0
	// keeps subtrees tied with the floor alive: any real group has
	// support >= 1, so qualifies() still admits conf == MinConf.
	if v.cfg.MinConf > 0 && rules.CompareConf(v.cfg.MinConf, minC) > 0 {
		minC, minS = v.cfg.MinConf, 0
	}
	return engine.Threshold{Conf: minC, Sup: minS}
}

// ProgressFloor implements engine.FloorReporter: the weakest per-row
// top-k confidence threshold, i.e. the dynamic minconf floor pruning is
// currently measured against. The engine calls it on the mining
// goroutine itself, so the scan cannot race with list updates.
func (v *topkVisitor) ProgressFloor() float64 {
	minC := math.Inf(1)
	for _, c := range v.thConf {
		if c < minC {
			minC = c
		}
	}
	if math.IsInf(minC, 1) {
		return 0
	}
	return minC
}

// maybeRaiseMinsup implements the second Section 4.1.1 optimization:
// once every row's k-th group reaches 100% confidence, only groups with
// support above the smallest k-th support can still qualify anywhere.
// A list short of k groups has threshold (0, 0), so the confidence
// check also stops at it.
func (v *topkVisitor) maybeRaiseMinsup() {
	minKthSup := math.MaxInt
	for p, c := range v.thConf {
		if c < 1.0 {
			return
		}
		minKthSup = min(minKthSup, v.thSup[p])
	}
	if minKthSup+1 > v.effMinsup {
		v.effMinsup = minKthSup + 1
	}
}

// qualifies reports whether a subtree whose best possible group has the
// given (confidence, support) upper bounds could still beat th.
func qualifies(th engine.Threshold, ubConf float64, ubSup int) bool {
	if c := rules.CompareConf(ubConf, th.Conf); c != 0 {
		return c > 0
	}
	return ubSup > th.Sup
}

// PruneBeforeScan is Step 9 (loose bounds), as the parent checks a
// child.
func (v *topkVisitor) PruneBeforeScan(th engine.Threshold, xp, xn, rp, rn int) bool {
	ubSup := xp + rp
	if ubSup < v.effMinsup {
		return true
	}
	if !v.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// PruneAfterScan is Step 11 (tight bounds).
func (v *topkVisitor) PruneAfterScan(th engine.Threshold, xp, xn, mp, rn int) bool {
	ubSup := xp + mp
	if ubSup < v.effMinsup {
		return true
	}
	if !v.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// expand rewrites a representative item list into the full antecedent.
func (v *topkVisitor) expand(reps []int) []int {
	var out []int
	for _, r := range reps {
		out = append(out, v.members[r]...)
	}
	sort.Ints(out)
	return out
}

// OnGroup is Step 13: update the top-k lists of the covered rows.
func (v *topkVisitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {

	if xp < v.cfg.Minsup {
		return
	}
	conf := float64(xp) / float64(xp+xn)
	if v.cfg.MinConf > 0 && rules.CompareConf(conf, v.cfg.MinConf) < 0 {
		return
	}
	v.apply(items, rows, conf, xp, xPos)
}

// apply is the Step 13 list maintenance: offer the group to every
// covered row's list, building it (and expanding its antecedent) on
// first acceptance.
func (v *topkVisitor) apply(items []int, rows *bitset.Set, conf float64, xp int, xPos []int) {
	var g *rules.Group // built on first acceptance
	for _, p := range xPos {
		if !v.admits(p, conf, xp) {
			continue
		}
		// Skip if this rule group is already present as a seed (same
		// support set); resolveSeeds rewrites its antecedent later.
		dup := false
		for _, g0 := range v.lists[p].Groups() {
			if rules.CompareConf(g0.Confidence, conf) == 0 && g0.Support == xp && g0.Rows != nil && g0.Rows.Equal(rows) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if g == nil {
			// rows aliases the engine's arena; the retained group needs
			// its own copy.
			g = &rules.Group{
				Antecedent: v.expand(items),
				Class:      v.cls,
				Support:    xp,
				Confidence: conf,
				Rows:       rows.Clone(),
			}
		}
		v.consider(p, g)
	}
}
