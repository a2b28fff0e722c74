package bench

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lowerbound"
	"repro/internal/stats"
)

// Fig8Gene is one gene's chi-square rank and its frequency of
// occurrence in the shortest lower-bound rules of the top-1 rule
// groups.
type Fig8Gene struct {
	Gene      int
	GeneName  string
	ChiSquare float64
	Rank      int
	Frequency int
}

// Fig8Result summarizes the Figure 8 analysis.
type Fig8Result struct {
	Genes []Fig8Gene // genes with Frequency > 0, sorted by Frequency desc
	// GenesInRules = number of distinct genes participating (the paper
	// reports 415 on PC).
	GenesInRules int
	// HighRankShare = fraction of rule occurrences contributed by genes
	// in the top half of the chi-square ranking (the paper's "most are
	// ranked 700th and above" observation).
	HighRankShare float64
	TotalGenes    int
}

// Fig8 regenerates Figure 8 on the PC dataset: chi-square based gene
// ranks against the frequency with which each gene's items occur in the
// shortest lower bounds of the top-1 covering rule groups.
func Fig8(ctx context.Context, w io.Writer, scale Scale, nl int, topLabel int) (*Fig8Result, error) {
	if nl == 0 {
		nl = 20
	}
	var pcProfile = profiles(scale)[3] // PC is the fourth Table 1 dataset
	pr, err := prepare(pcProfile)
	if err != nil {
		return nil, err
	}
	d := pr.dTrain

	// Chi-square score per gene: the max over the gene's items of the
	// item-presence vs class 2x2 statistic.
	chi := make([]float64, pr.train.NumGenes())
	classTotal := []int{d.ClassCount(0), d.ClassCount(1)}
	for i := 0; i < d.NumItems(); i++ {
		it := d.Items[i]
		present := []int{0, 0}
		d.ItemRows(i).ForEach(func(r int) bool {
			present[int(d.Labels[r])]++
			return true
		})
		v := stats.ChiSquareBinary(present[0], present[1],
			classTotal[0]-present[0], classTotal[1]-present[1])
		if v > chi[it.Gene] {
			chi[it.Gene] = v
		}
	}
	ranks := stats.Rank(chi)

	// Top-1 covering rule groups for both classes; shortest lower bounds.
	freq := make([]int, pr.train.NumGenes())
	scores := lowerbound.DefaultItemScores(d)
	for cls := 0; cls < d.NumClasses(); cls++ {
		n := d.ClassCount(dataset.Label(cls))
		ms := int(0.7 * float64(n))
		if float64(ms) < 0.7*float64(n) {
			ms++
		}
		if ms < 1 {
			ms = 1
		}
		res, _, err := mineVia(ctx, "topk", d, engine.Options{
			Class: dataset.Label(cls), K: 1, Minsup: ms,
		})
		if err != nil {
			return nil, err
		}
		for _, g := range res.Groups {
			lbs := lowerbound.Find(d, g, lowerbound.Config{
				NL: nl, MaxLen: 5, MaxCandidates: 1 << 18, ItemScore: scores,
			})
			for _, lb := range lbs {
				for _, item := range lb.Antecedent {
					freq[d.Items[item].Gene]++
				}
			}
		}
	}

	out := &Fig8Result{TotalGenes: pr.train.NumGenes()}
	occTotal, occHigh := 0, 0
	half := pr.train.NumGenes() / 2
	for g, f := range freq {
		if f == 0 {
			continue
		}
		out.Genes = append(out.Genes, Fig8Gene{
			Gene: g, GeneName: pr.train.GeneNames[g],
			ChiSquare: chi[g], Rank: ranks[g], Frequency: f,
		})
		occTotal += f
		if ranks[g] <= half {
			occHigh += f
		}
	}
	out.GenesInRules = len(out.Genes)
	if occTotal > 0 {
		out.HighRankShare = float64(occHigh) / float64(occTotal)
	}
	sort.Slice(out.Genes, func(i, j int) bool {
		if out.Genes[i].Frequency != out.Genes[j].Frequency {
			return out.Genes[i].Frequency > out.Genes[j].Frequency
		}
		return out.Genes[i].Rank < out.Genes[j].Rank
	})

	header(w, "Figure 8: chi-square gene ranks vs rule participation (PC)")
	fmt.Fprintf(w, "genes in top-1 lower-bound rules: %d of %d\n", out.GenesInRules, out.TotalGenes)
	fmt.Fprintf(w, "occurrences from top-half-ranked genes: %.1f%%\n", out.HighRankShare*100)
	fmt.Fprintf(w, "%-14s %8s %10s %10s\n", "gene", "rank", "chi2", "freq")
	for i, g := range out.Genes {
		if i >= topLabel && topLabel > 0 {
			break
		}
		fmt.Fprintf(w, "%-14s %8d %10.2f %10d\n", g.GeneName, g.Rank, g.ChiSquare, g.Frequency)
	}
	return out, nil
}
