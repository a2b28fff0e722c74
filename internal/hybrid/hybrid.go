// Package hybrid implements the extension sketched in the paper's
// Section 8: TopkRGS mining for datasets with many rows, by "utilizing
// column-wise mining first, then switching to row-wise enumeration in
// later levels to mine top-k covering rules in the partition formed by
// column-wise mining, and finally aggregating the top-k covering rules
// in all partitions".
//
// The column phase enumerates single frequent items. Each item i forms
// a partition: the sub-dataset of the rows containing i. Every rule
// group whose antecedent includes i lives entirely inside that
// partition (its support set is a subset of R(i)), and every rule group
// has a non-empty antecedent, so mining each partition with the
// row-enumeration core and merging the per-row lists — deduplicating
// groups rediscovered from several of their items — reconstructs the
// exact global top-k covering rule groups. Partitions are independent
// and bounded by |R(i)| rows, which is what makes the approach viable
// when the whole table has too many rows for direct row enumeration
// (or does not fit in memory: partitions can be processed one at a
// time, as §8's disk-based variant suggests).
package hybrid

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// Config controls hybrid mining.
type Config struct {
	// K and Minsup as in core.Config.
	K      int
	Minsup int
	// MaxPartitionRows caps partitions: items supported by more rows
	// than this are deferred to a single residual row-enumeration pass
	// over the whole table restricted to those items (0 = no cap; all
	// partitions are mined regardless of size).
	MaxPartitionRows int
	// MaxNodes, when positive, caps the cumulative enumeration nodes
	// across all partitions (and the residual pass). Once the budget is
	// spent, remaining partitions are skipped and Result.Stats.Aborted
	// is set; the groups merged so far are returned (possibly
	// incomplete).
	MaxNodes int
	// Progress, when non-nil, receives engine.ProgressSnapshots with
	// node and group counts cumulative across partitions, every
	// ProgressEvery nodes (0 = engine.DefaultProgressEvery).
	Progress      engine.ProgressFunc
	ProgressEvery int
}

// Result mirrors core.Result.
type Result struct {
	PerRow     map[int][]*rules.Group
	Groups     []*rules.Group
	Partitions int // partitions mined in the column phase
	// Stats aggregates the per-partition enumeration statistics; Nodes
	// is the cumulative count charged against Config.MaxNodes, and
	// Aborted reports a budget cutoff.
	Stats engine.Stats
}

// runState threads the cumulative node budget and progress offsets
// through the sequential per-partition core runs.
type runState struct {
	cfg   Config
	stats engine.Stats
}

// coreConfig maps the hybrid configuration onto one core run: the run
// is charged whatever budget is left, and its progress snapshots are
// offset so the caller's hook sees one monotone counter for the whole
// hybrid run.
func (s *runState) coreConfig() core.Config {
	c := core.DefaultConfig(s.cfg.Minsup, s.cfg.K)
	if s.cfg.MaxNodes > 0 {
		c.MaxNodes = s.cfg.MaxNodes - s.stats.Nodes
	}
	if prog := s.cfg.Progress; prog != nil {
		baseNodes := int64(s.stats.Nodes)
		baseGroups := int64(s.stats.Groups)
		total := int64(s.cfg.MaxNodes)
		c.Progress = func(p engine.ProgressSnapshot) {
			p.Nodes += baseNodes
			p.Groups += baseGroups
			if total > 0 {
				p.BudgetRemaining = max(total-p.Nodes, 0)
			}
			prog(p)
		}
		c.ProgressEvery = s.cfg.ProgressEvery
	}
	return c
}

// absorb folds one core run's statistics into the cumulative totals.
func (s *runState) absorb(st engine.Stats) {
	s.stats.Nodes += st.Nodes
	s.stats.BackwardPruned += st.BackwardPruned
	s.stats.PrunedBeforeScan += st.PrunedBeforeScan
	s.stats.PrunedAfterScan += st.PrunedAfterScan
	s.stats.Groups += st.Groups
	s.stats.MaxDepth = max(s.stats.MaxDepth, st.MaxDepth)
	if st.Aborted {
		s.stats.Aborted = true
	}
}

// exhausted reports whether the cumulative budget is spent. Callers
// check it before mining more work; finishing the final partition at
// exactly the cap is not an abort.
func (s *runState) exhausted() bool {
	return s.cfg.MaxNodes > 0 && (s.stats.Aborted || s.stats.Nodes >= s.cfg.MaxNodes)
}

// planPartitions computes the column-phase partition plan for mining
// class cls of d with the given absolute minimum support: one
// partition per frequent item i — the rows containing i — with
// identical partitions (items sharing a support set) deduplicated,
// first occurrence kept. Items supported by more than maxRows rows
// (when maxRows > 0) are excluded from the plan and returned
// separately as wide; they are exactly the residual-pass items.
//
// The plan is deterministic: partitions appear in ascending order of
// their defining item, each as the ascending global row ids of that
// item's support set. Mining every partition (plus the wide residual)
// and merging per-row top-k boards reconstructs the exact single-node
// result. cls must be a valid class of d.
func planPartitions(d *dataset.Dataset, cls dataset.Label, minsup, maxRows int) (parts [][]int, wide []int) {
	pos := d.RowSet(cls)
	keys := map[string]bool{}
	for i := 0; i < d.NumItems(); i++ {
		rows := d.ItemRows(i)
		if rows.IntersectionCount(pos) < minsup {
			continue
		}
		if maxRows > 0 && rows.Count() > maxRows {
			wide = append(wide, i)
			continue
		}
		key := rows.Key()
		if keys[key] {
			continue
		}
		keys[key] = true
		parts = append(parts, rows.Indices())
	}
	return parts, wide
}

// Mine discovers the top-k covering rule groups of class cls by
// column-partitioned row enumeration. It is MineContext without
// cancellation.
func Mine(d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cls, cfg) //vet:ignore ctxflow Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the in-progress partition and returns ctx.Err() with a
// nil Result.
func MineContext(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("hybrid: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("hybrid: minsup must be >= 1, got %d", cfg.Minsup)
	}
	if int(cls) < 0 || int(cls) >= d.NumClasses() {
		return nil, fmt.Errorf("hybrid: class %d outside [0,%d)", cls, d.NumClasses())
	}
	pos := d.RowSet(cls)
	if pos.Count() == 0 {
		return nil, fmt.Errorf("hybrid: no rows of class %s", d.ClassNames[cls])
	}

	res := &Result{PerRow: map[int][]*rules.Group{}}
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			res.PerRow[r] = nil
		}
	}

	// Per-row accumulators merging partition results.
	lists := map[int]*rules.TopKList{}
	for r := range res.PerRow {
		lists[r] = rules.NewTopKList(cfg.K)
	}
	// Global dedup: a group is rediscovered once per antecedent item
	// whose partition is mined.
	seen := map[string]bool{}

	// Column phase: one partition per frequent item, deduplicated by
	// support set (identical partitions yield identical groups).
	st := &runState{cfg: cfg}
	parts, wideItems := planPartitions(d, cls, cfg.Minsup, cfg.MaxPartitionRows)
	for _, rows := range parts {
		if st.exhausted() {
			// Budget spent with this partition (at least) still unmined:
			// the merged lists are a partial answer.
			st.stats.Aborted = true
			break
		}
		res.Partitions++
		if err := minePartition(ctx, d, cls, st, rows, lists, seen); err != nil {
			return nil, err
		}
	}

	// Residual pass for items whose partitions exceeded the cap: mine
	// the whole table restricted to those wide items (few in practice —
	// near-universal items produce shallow enumerations).
	if len(wideItems) > 0 && !st.stats.Aborted {
		isWide := make(map[int]bool, len(wideItems))
		for _, i := range wideItems {
			isWide[i] = true
		}
		wide, _ := d.FilterItems(func(i int) bool { return isWide[i] })
		switch {
		case st.exhausted():
			st.stats.Aborted = true
		default:
			sub, err := core.MineContext(ctx, wide, cls, st.coreConfig())
			if err != nil {
				return nil, err
			}
			st.absorb(sub.Stats)
			for _, g := range sub.Groups {
				// The closure over wide items only may not be globally
				// closed; recompute the global closure (which also
				// restores global item ids — `wide` renumbers them).
				g.Antecedent = d.CommonItems(g.Rows)
				offer(d, g, lists, seen)
			}
		}
	}

	// Collect.
	collected := map[*rules.Group]bool{}
	for r, l := range lists {
		gs := l.Groups()
		out := make([]*rules.Group, len(gs))
		copy(out, gs)
		res.PerRow[r] = out
		for _, g := range gs {
			if !collected[g] {
				collected[g] = true
				res.Groups = append(res.Groups, g)
			}
		}
	}
	rules.SortGroups(res.Groups)
	res.Stats = st.stats
	return res, nil
}

// minePartition runs the row-enumeration core on the sub-dataset of the
// given rows and merges the discovered groups into the global lists.
func minePartition(ctx context.Context, d *dataset.Dataset, cls dataset.Label, st *runState, rows []int, lists map[int]*rules.TopKList, seen map[string]bool) error {
	sub := d.Subset(rows)
	res, err := core.MineContext(ctx, sub, cls, st.coreConfig())
	if err != nil {
		return err
	}
	st.absorb(res.Stats)
	for _, g := range res.Groups {
		// Remap the support set to global row ids.
		global := bitset.New(d.NumRows())
		g.Rows.ForEach(func(localR int) bool {
			global.Add(rows[localR])
			return true
		})
		g.Rows = global
		// The antecedent is exact: the partition's defining item i is in
		// every partition row, so i ∈ I(X) for any X, which pins
		// R_global(I(X)) inside the partition — partition-local support,
		// confidence, and closure all equal their global values.
		offer(d, g, lists, seen)
	}
	return nil
}

// offer inserts a group into the lists of the positive rows it covers,
// deduplicating across partitions.
func offer(d *dataset.Dataset, g *rules.Group, lists map[int]*rules.TopKList, seen map[string]bool) {
	key := g.Key()
	if seen[key] {
		return
	}
	seen[key] = true
	g.Rows.ForEach(func(r int) bool {
		if l, ok := lists[r]; ok {
			l.Consider(g)
		}
		return true
	})
}
