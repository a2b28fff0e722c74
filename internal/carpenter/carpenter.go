// Package carpenter implements CARPENTER [23], the first row
// enumeration algorithm and the direct ancestor of FARMER and
// MineTopkRGS: closed frequent itemset mining over all rows (no class
// labels) by depth-first row-set enumeration with forward closure and
// backward pruning.
//
// It is a thin instantiation of the shared engine in internal/engine
// with every row treated as "positive", included both as a historical
// baseline and as a cross-check for the column-enumeration miners
// (CHARM, CLOSET+): all three must produce identical closed
// collections.
package carpenter

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// ClosedItemset is one result: a closed itemset and its support over
// all rows.
type ClosedItemset = engine.ClosedItemset

// Config parameterizes a run.
type Config struct {
	Minsup   int // absolute minimum support over all rows
	MaxNodes int // 0 = unbounded
	// Progress, when non-nil, receives engine.ProgressSnapshots every
	// engine.DefaultProgressEvery nodes.
	Progress engine.ProgressFunc
}

// Result is the output of Mine.
type Result struct {
	Closed  []ClosedItemset
	Stats   engine.Stats
	Aborted bool
}

// visitor collects closed itemsets above minsup.
type visitor struct {
	minsup  int
	members map[int][]int // representative item -> all same-support items
	out     []ClosedItemset
}

func (v *visitor) PruneOnEntry(_ *bitset.Set, candPos []int, xp, xn, rn int) bool {
	return xp+len(candPos) < v.minsup
}

func (v *visitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	return engine.Threshold{}
}

func (v *visitor) PruneBeforeScan(_ engine.Threshold, xp, xn, rp, rn int) bool {
	return xp+rp < v.minsup
}

func (v *visitor) PruneAfterScan(_ engine.Threshold, xp, xn, mp, rn int) bool {
	return xp+mp < v.minsup
}

// MonotoneChildren implements engine.MonotoneChildren: every row is
// positive, so a child's support bound xp+rp falls along the loop.
func (v *visitor) MonotoneChildren() bool { return true }

func (v *visitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	if xp < v.minsup {
		return
	}
	var full []int
	for _, rep := range items {
		full = append(full, v.members[rep]...)
	}
	sort.Ints(full)
	v.out = append(v.out, ClosedItemset{Items: full, Support: xp})
}

// Mine discovers all closed itemsets of d with support >= cfg.Minsup
// using row enumeration. It is MineContext without cancellation.
func Mine(d *dataset.Dataset, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cfg) // vetsuite:allow ctxflow -- Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the search at the next node and returns ctx.Err() with a
// nil Result. A Config.MaxNodes abort is not an error — the partial
// Result is returned with Aborted set.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("carpenter: minsup must be >= 1, got %d", cfg.Minsup)
	}
	n := d.NumRows()
	// Frequent items, deduplicated by identical support sets (the same
	// representative trick as MineTopkRGS — interchangeable during
	// enumeration, expanded at output).
	v := &visitor{minsup: cfg.Minsup, members: map[int][]int{}}
	itemRows := make([]*bitset.Set, d.NumItems())
	byHash := map[uint64][]int{} // support-set hash -> representatives
	var reps []int
	for i := 0; i < d.NumItems(); i++ {
		rs := d.ItemRows(i)
		if rs.Count() < cfg.Minsup {
			continue
		}
		itemRows[i] = rs
		h := rs.Hash64()
		rep := -1
		for _, cand := range byHash[h] {
			if itemRows[cand].Equal(rs) {
				rep = cand
				break
			}
		}
		if rep < 0 {
			byHash[h] = append(byHash[h], i)
			reps = append(reps, i)
			rep = i
		}
		v.members[rep] = append(v.members[rep], i)
	}

	eng := &engine.Enumerator{
		NumRows:  n,
		NumPos:   n, // unlabeled mining: every row counts toward support
		ItemRows: itemRows,
		Visitor:  v,
		MaxNodes: cfg.MaxNodes,
		Progress: cfg.Progress,
	}
	stats, err := eng.Run(ctx, reps)
	if err != nil {
		return nil, err
	}

	sort.Slice(v.out, func(i, j int) bool {
		a, b := v.out[i], v.out[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return less(a.Items, b.Items)
	})
	return &Result{Closed: v.out, Stats: stats, Aborted: stats.Aborted}, nil
}

func less(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
