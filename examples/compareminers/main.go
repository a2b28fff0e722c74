// Compareminers times MineTopkRGS against the FARMER engines and the
// column-enumeration miners (CHARM with diffsets, CLOSET+) on one
// synthetic dataset — a single-point slice of Figure 6.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/farmer"
	"repro/internal/synth"
)

func main() {
	scale := flag.Int("scale", 16, "gene-count divisor")
	minsup := flag.Float64("minsup", 0.85, "relative minimum support")
	budget := flag.Int("budget", 2_000_000, "baseline node budget before DNF")
	flag.Parse()

	p := synth.Scaled(synth.ALL(), *scale)
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
	ms := engine.RelativeMinsup(*minsup, d.ClassCount(0))
	fmt.Printf("%s: %d rows, %d items, minsup=%d (%.0f%% of class %s)\n\n",
		p.Name, d.NumRows(), d.NumItems(), ms, *minsup*100, d.ClassNames[0])
	fmt.Printf("%-24s %10s %10s %8s\n", "algorithm", "time", "results", "note")

	report := func(name string, elapsed time.Duration, results int, aborted bool) {
		note := ""
		if aborted {
			note = "DNF"
		}
		fmt.Printf("%-24s %10s %10d %8s\n", name, fmt.Sprintf("%.3fs", elapsed.Seconds()), results, note)
	}

	for _, k := range []int{1, 10, 100} {
		start := time.Now()
		res, err := core.Mine(d, dataset.Label(0), core.DefaultConfig(ms, k))
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("MineTopkRGS(k=%d)", k), time.Since(start), len(res.Groups), false)
	}
	for _, cfg := range []struct {
		name    string
		engine  farmer.Engine
		minconf float64
	}{
		{"FARMER bitset (c=0.9)", farmer.EngineBitset, 0.9},
		{"FARMER prefix (c=0.9)", farmer.EnginePrefix, 0.9},
		{"FARMER naive (c=0.9)", farmer.EngineNaive, 0.9},
		{"FARMER naive (c=0)", farmer.EngineNaive, 0},
	} {
		start := time.Now()
		res, err := farmer.Mine(d, dataset.Label(0), farmer.Config{
			Minsup: ms, Minconf: cfg.minconf, Engine: cfg.engine, MaxNodes: *budget,
		})
		if err != nil {
			log.Fatal(err)
		}
		report(cfg.name, time.Since(start), len(res.Groups), res.Aborted)
	}
	colMS := ms // same absolute threshold for the unlabeled miners
	{
		start := time.Now()
		res, err := carpenter.Mine(d, carpenter.Config{Minsup: colMS, MaxNodes: *budget})
		if err != nil {
			log.Fatal(err)
		}
		report("CARPENTER (rows)", time.Since(start), len(res.Closed), res.Aborted)
	}
	{
		start := time.Now()
		res, err := charm.Mine(d, charm.Config{Minsup: colMS, MaxNodes: *budget})
		if err != nil {
			log.Fatal(err)
		}
		report("CHARM (diffsets)", time.Since(start), len(res.Closed), res.Aborted)
	}
	{
		start := time.Now()
		res, err := closet.Mine(d, closet.Config{Minsup: colMS, MaxNodes: *budget})
		if err != nil {
			log.Fatal(err)
		}
		report("CLOSET+", time.Since(start), len(res.Closed), res.Aborted)
	}
}
