// Prostate reproduces the Figure 8 analysis on the synthetic prostate
// cancer profile: it mines the top-1 covering rule groups, extracts
// their shortest lower-bound rules, and relates each gene's chi-square
// rank to how often it participates in those rules — the paper's
// evidence that low-ranked genes supply necessary supplementary
// information for globally significant rules.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/lowerbound"
	"repro/internal/stats"
	"repro/internal/synth"
)

func main() {
	scale := flag.Int("scale", 8, "gene-count divisor (1 = full 12600 genes)")
	nl := flag.Int("nl", 20, "lower-bound rules per group")
	top := flag.Int("top", 10, "how many most-frequent genes to list")
	flag.Parse()

	p := synth.PC()
	if *scale > 1 {
		p = synth.Scaled(p, *scale)
	}
	train, _, err := synth.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		log.Fatal(err)
	}
	d, err := dz.Transform(train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d genes, %d after discretization, %d items, %d rows\n",
		p.Name, p.NumGenes, dz.NumSelectedGenes(), d.NumItems(), d.NumRows())

	// Chi-square score per gene (max over its items).
	chi := make([]float64, train.NumGenes())
	classTotal := []int{d.ClassCount(0), d.ClassCount(1)}
	for i := 0; i < d.NumItems(); i++ {
		present := []int{0, 0}
		d.ItemRows(i).ForEach(func(r int) bool {
			present[int(d.Labels[r])]++
			return true
		})
		v := stats.ChiSquareBinary(present[0], present[1],
			classTotal[0]-present[0], classTotal[1]-present[1])
		if g := d.Items[i].Gene; v > chi[g] {
			chi[g] = v
		}
	}
	ranks := stats.Rank(chi)

	// Frequency of each gene in the shortest lower bounds of top-1
	// covering rule groups (both consequents).
	freq := make([]int, train.NumGenes())
	scores := lowerbound.DefaultItemScores(d)
	for cls := 0; cls < d.NumClasses(); cls++ {
		ms := engine.RelativeMinsup(0.7, d.ClassCount(dataset.Label(cls)))
		res, err := core.Mine(d, dataset.Label(cls), core.DefaultConfig(ms, 1))
		if err != nil {
			log.Fatal(err)
		}
		for _, g := range res.Groups {
			for _, lb := range lowerbound.Find(d, g, lowerbound.Config{NL: *nl, ItemScore: scores}) {
				for _, item := range lb.Antecedent {
					freq[d.Items[item].Gene]++
				}
			}
		}
	}

	inRules, highRankOcc, totalOcc := 0, 0, 0
	type row struct {
		gene, rank, freq int
	}
	var rows []row
	for g, f := range freq {
		if f == 0 {
			continue
		}
		inRules++
		totalOcc += f
		if ranks[g] <= train.NumGenes()/2 {
			highRankOcc += f
		}
		rows = append(rows, row{g, ranks[g], f})
	}
	fmt.Printf("genes participating in top-1 lower-bound rules: %d\n", inRules)
	if totalOcc > 0 {
		fmt.Printf("rule occurrences from top-half-ranked genes: %.1f%%\n",
			100*float64(highRankOcc)/float64(totalOcc))
	}
	// Most frequent genes (the paper labels genes with > 200 occurrences).
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].freq > rows[i].freq {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	fmt.Printf("%-12s %8s %8s\n", "gene", "chi-rank", "freq")
	for i, r := range rows {
		if i >= *top {
			break
		}
		fmt.Printf("%-12s %8d %8d\n", train.GeneNames[r.gene], r.rank, r.freq)
	}
}
