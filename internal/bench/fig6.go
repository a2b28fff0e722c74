package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
)

// Fig6Point is one (algorithm, minsup) runtime measurement.
type Fig6Point struct {
	Dataset   string
	Algorithm string
	Minsup    float64 // relative
	Elapsed   time.Duration
	Aborted   bool
	Groups    int
}

// Fig6Config tunes the runtime sweep.
type Fig6Config struct {
	Scale Scale
	// Minsups are relative thresholds (paper: 0.95 down to 0.60).
	Minsups []float64
	// BaselineBudget caps baseline enumeration nodes so the sweep
	// terminates; exceeded runs report DNF (the paper's "cannot finish").
	BaselineBudget int
	// TopkBudget optionally caps MineTopkRGS nodes as well (0 =
	// unbounded). The paper's Figure 6 runs TopkRGS to completion; a
	// budget keeps exhaustive sweeps on the hardest profiles bounded and
	// reports DNF honestly when hit.
	TopkBudget int
	// IncludeColumnMiners also times CHARM and CLOSET+ (often DNF).
	IncludeColumnMiners bool
	// Datasets filters by profile name; nil = all four.
	Datasets []string
}

// DefaultFig6Config mirrors the paper's sweep.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Scale:               1,
		Minsups:             []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6},
		BaselineBudget:      3_000_000,
		IncludeColumnMiners: true,
	}
}

// Fig6 regenerates Figure 6(a-d): mining runtime versus minimum support
// for MineTopkRGS (k=1 and k=100) against FARMER (naive engine),
// FARMER+prefix, and optionally CHARM / CLOSET+.
func Fig6(ctx context.Context, w io.Writer, cfg Fig6Config) ([]Fig6Point, error) {
	if len(cfg.Minsups) == 0 {
		cfg.Minsups = DefaultFig6Config().Minsups
	}
	if cfg.BaselineBudget == 0 {
		cfg.BaselineBudget = DefaultFig6Config().BaselineBudget
	}
	var out []Fig6Point
	for _, p := range profiles(cfg.Scale) {
		if !wantDataset(cfg.Datasets, p.Name) {
			continue
		}
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		header(w, fmt.Sprintf("Figure 6: runtime vs minsup on %s (rows=%d items=%d)",
			p.Name, pr.dTrain.NumRows(), pr.dTrain.NumItems()))
		fmt.Fprintf(w, "%-8s %-22s %10s %10s\n", "minsup", "algorithm", "time", "groups")
		for _, frac := range cfg.Minsups {
			ms := minsupAbs(pr.dTrain, frac)
			pts, err := fig6AtMinsup(ctx, pr, frac, ms, cfg)
			if err != nil {
				return nil, err
			}
			for _, pt := range pts {
				fmt.Fprintf(w, "%-8.2f %-22s %10s %10d\n",
					pt.Minsup, pt.Algorithm, fmtDur(pt.Elapsed, pt.Aborted), pt.Groups)
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

func wantDataset(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// fig6AtMinsup times every algorithm at one support level, dispatching
// each through the engine registry.
func fig6AtMinsup(ctx context.Context, pr *prepared, frac float64, ms int, cfg Fig6Config) ([]Fig6Point, error) {
	var pts []Fig6Point
	add := func(alg string, elapsed time.Duration, aborted bool, groups int) {
		pts = append(pts, Fig6Point{
			Dataset: pr.profile.Name, Algorithm: alg, Minsup: frac,
			Elapsed: elapsed, Aborted: aborted, Groups: groups,
		})
	}
	run := func(alg, miner string, opts engine.Options, count func(*engine.Result) int) error {
		var res *engine.Result
		var stats engine.Stats
		var err error
		elapsed := timeIt(func() {
			res, stats, err = mineVia(ctx, miner, pr.dTrain, opts)
		})
		if err != nil {
			return err
		}
		add(alg, elapsed, stats.Aborted, count(res))
		return nil
	}
	groups := func(r *engine.Result) int { return len(r.Groups) }
	closed := func(r *engine.Result) int { return len(r.Closed) }

	for _, k := range []int{1, 100} {
		err := run(fmt.Sprintf("TopkRGS(k=%d)", k), "topk", engine.Options{
			K: k, Minsup: ms, MaxNodes: cfg.TopkBudget,
		}, groups)
		if err != nil {
			return nil, err
		}
	}

	for _, fc := range []struct {
		name    string
		variant string
		minconf float64
	}{
		{"FARMER+prefix(c=0.9)", "prefix", 0.9},
		{"FARMER+prefix(c=0)", "prefix", 0},
		{"FARMER(c=0.9)", "naive", 0.9},
		{"FARMER(c=0)", "naive", 0},
	} {
		err := run(fc.name, "farmer", engine.Options{
			Minsup: ms, Minconf: fc.minconf, Variant: fc.variant,
			MaxNodes: cfg.BaselineBudget,
		}, groups)
		if err != nil {
			return nil, err
		}
	}

	if cfg.IncludeColumnMiners {
		// Column miners count support over all rows; give them the same
		// absolute threshold the rule miners use on the consequent class,
		// the most favorable comparable setting.
		colMS := ms
		err := run("CHARM(diffsets)", "charm", engine.Options{
			Minsup: colMS, MaxNodes: cfg.BaselineBudget,
		}, closed)
		if err != nil {
			return nil, err
		}
		err = run("CLOSET+", "closet", engine.Options{
			Minsup: colMS, MaxNodes: cfg.BaselineBudget,
		}, closed)
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// Fig6e regenerates Figure 6(e): MineTopkRGS runtime versus k on the
// ALL and PC datasets at a fixed relative support.
func Fig6e(ctx context.Context, w io.Writer, scale Scale, minsupFrac float64, ks []int) ([]Fig6Point, error) {
	if len(ks) == 0 {
		ks = []int{1, 20, 40, 60, 80, 100}
	}
	if minsupFrac == 0 {
		minsupFrac = 0.8
	}
	var out []Fig6Point
	for _, p := range profiles(scale) {
		if bn := baseName(p.Name); bn != "ALL" && bn != "PC" {
			continue
		}
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		ms := minsupAbs(pr.dTrain, minsupFrac)
		header(w, fmt.Sprintf("Figure 6(e): runtime vs k on %s (minsup=%.2f)", p.Name, minsupFrac))
		fmt.Fprintf(w, "%-6s %10s %10s\n", "k", "time", "groups")
		for _, k := range ks {
			var res *engine.Result
			var err error
			elapsed := timeIt(func() {
				res, _, err = mineVia(ctx, "topk", pr.dTrain, engine.Options{K: k, Minsup: ms})
			})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "%-6d %10s %10d\n", k, fmtDur(elapsed, false), len(res.Groups))
			out = append(out, Fig6Point{
				Dataset: p.Name, Algorithm: fmt.Sprintf("TopkRGS(k=%d)", k),
				Minsup: minsupFrac, Elapsed: elapsed, Groups: len(res.Groups),
			})
		}
	}
	return out, nil
}

// baseName strips the "/scale" suffix from a scaled profile name.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return name
}
