// Leukemia runs the full RCBT pipeline on the synthetic ALL/AML
// profile: generation, entropy-MDL discretization, top-k covering rule
// group mining, classifier construction with standby classifiers, and
// test-set evaluation — the workflow behind the ALL column of Table 2.
//
// Pass -scale to shrink the gene count for a faster demonstration.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/discretize"
	"repro/internal/rcbt"
	"repro/internal/synth"
)

func main() {
	scale := flag.Int("scale", 8, "gene-count divisor (1 = full 7129 genes)")
	k := flag.Int("k", 10, "covering rule groups per row")
	nl := flag.Int("nl", 20, "lower-bound rules per group")
	flag.Parse()

	p := synth.ALL()
	if *scale > 1 {
		p = synth.Scaled(p, *scale)
	}
	fmt.Printf("dataset %s: %d genes, train %d (%d %s : %d %s), test %d\n",
		p.Name, p.NumGenes, p.Train1+p.Train0, p.Train1, p.Class1, p.Train0, p.Class0,
		p.Test1+p.Test0)

	train, test, err := synth.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		log.Fatal(err)
	}
	dTrain, err := dz.Transform(train)
	if err != nil {
		log.Fatal(err)
	}
	dTest, err := dz.Transform(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entropy-MDL discretization kept %d genes (%d items)\n",
		dz.NumSelectedGenes(), dTrain.NumItems())

	c, err := rcbt.Train(dTrain, rcbt.Config{K: *k, NL: *nl, MinsupFrac: 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RCBT: %d classifiers (1 main + %d standby), default class %s\n",
		c.NumClassifiers(), c.NumClassifiers()-1, dTrain.ClassNames[c.Default()])

	preds, stats := c.PredictDataset(dTest)
	correct := 0
	confusion := [2][2]int{}
	for r, lab := range preds {
		truth := dTest.Labels[r]
		confusion[int(truth)][int(lab)]++
		if lab == truth {
			correct++
		}
	}
	fmt.Printf("test accuracy: %d/%d = %.2f%%\n", correct, dTest.NumRows(),
		100*float64(correct)/float64(dTest.NumRows()))
	fmt.Printf("confusion:  pred-%s pred-%s\n", p.Class1, p.Class0)
	for t := 0; t < 2; t++ {
		name := p.Class1
		if t == 1 {
			name = p.Class0
		}
		fmt.Printf("  true-%-6s %6d %9d\n", name, confusion[t][0], confusion[t][1])
	}
	fmt.Printf("decided by: main=%d standby=%v default=%d\n",
		at(stats.ByClassifier, 0), tail(stats.ByClassifier), stats.Defaults)
}

func at(xs []int, i int) int {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

func tail(xs []int) []int {
	if len(xs) <= 1 {
		return nil
	}
	return xs[1:]
}
