package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
)

// AblationPoint is one configuration's cost measurement.
type AblationPoint struct {
	Dataset string
	Variant string
	Elapsed time.Duration
	Nodes   int
	Aborted bool
}

// AblationEngines compares the three FARMER table engines (naive
// materialized tables, prefix tree, bitsets) at identical pruning — the
// paper's "FARMER vs FARMER+prefix" isolation of the representation.
func AblationEngines(ctx context.Context, w io.Writer, scale Scale, minsupFrac, minconf float64, budget int) ([]AblationPoint, error) {
	if minsupFrac == 0 {
		minsupFrac = 0.85
	}
	if budget == 0 {
		budget = 3_000_000
	}
	var out []AblationPoint
	header(w, fmt.Sprintf("Ablation: projected-table engine (minsup=%.2f minconf=%.2f)", minsupFrac, minconf))
	fmt.Fprintf(w, "%-10s %-10s %10s %12s\n", "dataset", "engine", "time", "nodes")
	for _, p := range profiles(scale) {
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		ms := minsupAbs(pr.dTrain, minsupFrac)
		for _, variant := range []string{"naive", "prefix", "bitset"} {
			var stats engine.Stats
			var err error
			elapsed := timeIt(func() {
				_, stats, err = mineVia(ctx, "farmer", pr.dTrain, engine.Options{
					Minsup: ms, Minconf: minconf, Variant: variant,
					MaxNodes: budget,
				})
			})
			if err != nil {
				return nil, err
			}
			pt := AblationPoint{
				Dataset: p.Name, Variant: variant,
				Elapsed: elapsed, Nodes: stats.Nodes, Aborted: stats.Aborted,
			}
			out = append(out, pt)
			fmt.Fprintf(w, "%-10s %-10s %10s %12d\n", pt.Dataset, pt.Variant, fmtDur(pt.Elapsed, pt.Aborted), pt.Nodes)
		}
	}
	return out, nil
}

// AblationPruning measures MineTopkRGS with each optimization disabled
// in turn: top-k pruning, backward pruning, single-item seeding, the
// class-internal row ordering, and dynamic minsup raising. budget caps
// enumeration nodes per run (0 = 3M); exceeded runs report DNF.
func AblationPruning(ctx context.Context, w io.Writer, scale Scale, minsupFrac float64, k, budget int) ([]AblationPoint, error) {
	if minsupFrac == 0 {
		minsupFrac = 0.8
	}
	if k == 0 {
		k = 10
	}
	if budget == 0 {
		budget = 3_000_000
	}
	variants := []struct {
		name string
		mod  func(*engine.Options)
	}{
		{"full", func(o *engine.Options) {}},
		{"-topk", func(o *engine.Options) { o.DisableTopKPruning = true }},
		{"-backward", func(o *engine.Options) { o.DisableBackwardPruning = true }},
		{"-seedinit", func(o *engine.Options) { o.DisableSeedInit = true }},
		{"-roworder", func(o *engine.Options) { o.DisableRowSort = true }},
		{"-dynminsup", func(o *engine.Options) { o.DisableDynamicMinsup = true }},
	}
	var out []AblationPoint
	header(w, fmt.Sprintf("Ablation: MineTopkRGS optimizations (minsup=%.2f k=%d)", minsupFrac, k))
	fmt.Fprintf(w, "%-10s %-12s %10s %12s\n", "dataset", "variant", "time", "nodes")
	for _, p := range profiles(scale) {
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		ms := minsupAbs(pr.dTrain, minsupFrac)
		for _, v := range variants {
			opts := engine.Options{K: k, Minsup: ms, MaxNodes: budget}
			v.mod(&opts)
			var stats engine.Stats
			var err error
			elapsed := timeIt(func() {
				_, stats, err = mineVia(ctx, "topk", pr.dTrain, opts)
			})
			if err != nil {
				return nil, err
			}
			pt := AblationPoint{Dataset: p.Name, Variant: v.name, Elapsed: elapsed, Nodes: stats.Nodes, Aborted: stats.Aborted}
			out = append(out, pt)
			fmt.Fprintf(w, "%-10s %-12s %10s %12d\n", pt.Dataset, pt.Variant, fmtDur(pt.Elapsed, pt.Aborted), pt.Nodes)
		}
	}
	return out, nil
}
