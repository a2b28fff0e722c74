package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
)

// GroupCountPoint records how many rule groups exist at one support
// level — the paper's motivating observation that even rule groups
// (let alone rules) number in the tens of thousands on gene expression
// data, which is why per-row top-k lists are needed.
type GroupCountPoint struct {
	Dataset string
	Minsup  float64
	Minconf float64
	Groups  int
	Capped  bool // search budget hit: the true count is larger
}

// GroupCount regenerates the Section 1 motivation: the total number of
// rule groups (upper bounds) at the paper's confidence settings as
// support drops, per dataset.
func GroupCount(ctx context.Context, w io.Writer, scale Scale, minsups []float64, minconf float64, budget int) ([]GroupCountPoint, error) {
	if len(minsups) == 0 {
		minsups = []float64{0.95, 0.9, 0.85, 0.8}
	}
	if budget == 0 {
		budget = 2_000_000
	}
	header(w, fmt.Sprintf("Section 1 motivation: rule group counts (minconf=%.2f)", minconf))
	fmt.Fprintf(w, "%-10s %-8s %12s %8s\n", "dataset", "minsup", "groups", "capped")
	var out []GroupCountPoint
	for _, p := range profiles(scale) {
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		for _, frac := range minsups {
			ms := minsupAbs(pr.dTrain, frac)
			res, stats, err := mineVia(ctx, "farmer", pr.dTrain, engine.Options{
				Minsup: ms, Minconf: minconf, Variant: "bitset",
				MaxNodes: budget,
			})
			if err != nil {
				return nil, err
			}
			pt := GroupCountPoint{
				Dataset: p.Name, Minsup: frac, Minconf: minconf,
				Groups: len(res.Groups), Capped: stats.Aborted,
			}
			out = append(out, pt)
			capped := ""
			if pt.Capped {
				capped = ">= (capped)"
			}
			fmt.Fprintf(w, "%-10s %-8.2f %12d %8s\n", pt.Dataset, pt.Minsup, pt.Groups, capped)
		}
	}
	return out, nil
}
