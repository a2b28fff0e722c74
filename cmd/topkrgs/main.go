// Command topkrgs mines the top-k covering rule groups of a discretized
// dataset file (see internal/dataset's WriteDataset format) or of a raw
// expression matrix (discretized on the fly).
//
// Usage:
//
//	topkrgs -in data.txt [-matrix] -class 0 -minsup 0.7 -k 10 [-timeout 30s] [-v]
//
// With -matrix, -in is parsed as a real-valued expression matrix and
// entropy-MDL discretization runs first. -minsup is relative to the
// consequent class size when < 1, absolute otherwise. -timeout aborts
// the whole mine with an error once exceeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/lowerbound"
	"repro/topkrgs"
)

func main() {
	in := flag.String("in", "", "input file (required)")
	isMatrix := flag.Bool("matrix", false, "input is a raw expression matrix")
	classIdx := flag.Int("class", 0, "consequent class index")
	minsup := flag.Float64("minsup", 0.7, "minimum support (relative if < 1, absolute otherwise)")
	k := flag.Int("k", 10, "covering rule groups per row")
	verbose := flag.Bool("v", false, "print per-row lists, not just the group union")
	nl := flag.Int("lb", 0, "also derive this many shortest lower-bound rules per group")
	timeout := flag.Duration("timeout", 0, "abort mining after this long (0 = no limit)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	d, err := load(*in, *isMatrix)
	if err != nil {
		fail(err)
	}
	cls := dataset.Label(*classIdx)
	ms := int(*minsup)
	if *minsup < 1 {
		n := d.ClassCount(cls)
		ms = int(*minsup * float64(n))
		if float64(ms) < *minsup*float64(n) {
			ms++
		}
	}
	if ms < 1 {
		ms = 1
	}
	res, err := topkrgs.Mine(context.Background(), d, topkrgs.MineOptions{
		Class:   cls,
		Minsup:  ms,
		K:       *k,
		Timeout: *timeout,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("rows=%d items=%d frequentItems=%d class=%s minsup=%d k=%d\n",
		d.NumRows(), d.NumItems(), res.NumFrequentItems, d.ClassNames[cls], ms, *k)
	fmt.Printf("enumeration: nodes=%d backwardPruned=%d loosePruned=%d tightPruned=%d\n",
		res.Stats.Nodes, res.Stats.BackwardPruned, res.Stats.PrunedBeforeScan, res.Stats.PrunedAfterScan)
	fmt.Printf("distinct top-%d covering rule groups: %d\n", *k, len(res.Groups))
	var scores []float64
	if *nl > 0 {
		scores = lowerbound.DefaultItemScores(d)
	}
	for _, g := range res.Groups {
		fmt.Println("  " + g.Render(d))
		if *nl > 0 {
			lbs := lowerbound.Find(d, g, lowerbound.Config{
				NL: *nl, MaxLen: 5, MaxCandidates: 1 << 18, ItemScore: scores,
			})
			for _, lb := range lbs {
				fmt.Println("      lb: " + lb.Render(d))
			}
		}
	}
	if *verbose {
		for r := 0; r < d.NumRows(); r++ {
			gs, ok := res.PerRow[r]
			if !ok {
				continue
			}
			fmt.Printf("row %d (%s):\n", r, d.ClassNames[d.Labels[r]])
			for rank, g := range gs {
				fmt.Printf("  #%d %s\n", rank+1, g.Render(d))
			}
		}
	}
}

func load(path string, isMatrix bool) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // vetsuite:allow uncheckederr -- read-only file, nothing buffered to lose
	if !isMatrix {
		return dataset.ReadDataset(f)
	}
	m, err := dataset.ReadMatrix(f)
	if err != nil {
		return nil, err
	}
	dz, err := discretize.FitMatrix(m)
	if err != nil {
		return nil, err
	}
	return dz.Transform(m)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "topkrgs:", err)
	os.Exit(1)
}
