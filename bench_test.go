// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section as Go benchmarks, one per
// artifact, over gene-scaled synthetic profiles (the benchrunner CLI
// runs the same experiments at paper scale):
//
//	BenchmarkTable1Discretization — Table 1
//	BenchmarkFig6MineTopkRGS / BenchmarkFig6Baselines — Figure 6(a-d)
//	BenchmarkFig6eVaryK — Figure 6(e)
//	BenchmarkTable2Classifiers — Table 2
//	BenchmarkFig7VaryNL — Figure 7
//	BenchmarkFig8GeneRanks — Figure 8
//	BenchmarkDefaultClassStats / BenchmarkMinsupSweep — §6.2 analyses
//	BenchmarkAblation* — design-choice ablations from DESIGN.md
//	BenchmarkMineTall / BenchmarkMineWide — the mining kernel at RCBT's
//	defaults on a tall (408 × 185 items) and a wide (210 × 3,309) shape;
//	BenchmarkMineTall/train trains the tall shape as a train job does
package repro

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/farmer"
	"repro/internal/rcbt"
	"repro/internal/synth"
)

// benchScale shrinks gene counts so the full -bench=. sweep stays in
// the minutes range; relative orderings are preserved.
const benchScale = 30

// prep caches discretized datasets per profile across benchmarks.
var prepCache = map[string]*dataset.Dataset{}

func prepDataset(b *testing.B, p synth.Profile) *dataset.Dataset {
	b.Helper()
	if d, ok := prepCache[p.Name]; ok {
		return d
	}
	train, _, err := synth.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dz.Transform(train)
	if err != nil {
		b.Fatal(err)
	}
	if d.NumItems() > 0 {
		d.ItemRows(0) // build the lazy item index before any timed op
	}
	prepCache[p.Name] = d
	return d
}

func scaledProfiles() []synth.Profile {
	ps := synth.Profiles()
	for i := range ps {
		ps[i] = synth.Scaled(ps[i], benchScale)
	}
	return ps
}

func minsupOf(d *dataset.Dataset, frac float64) int {
	n := d.ClassCount(0)
	ms := int(frac*float64(n)) + 1
	if ms < 1 {
		ms = 1
	}
	return ms
}

// BenchmarkTable1Discretization measures the Table 1 preprocessing:
// entropy-MDL discretization with feature selection per dataset.
func BenchmarkTable1Discretization(b *testing.B) {
	for _, p := range scaledProfiles() {
		train, _, err := synth.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := discretize.FitMatrix(train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6MineTopkRGS measures MineTopkRGS per dataset at the
// paper's two k settings (Figure 6 a-d, TopkRGS series).
func BenchmarkFig6MineTopkRGS(b *testing.B) {
	for _, p := range scaledProfiles() {
		d := prepDataset(b, p)
		ms := minsupOf(d, 0.9)
		for _, k := range []int{1, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", p.Name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Mine(d, 0, core.DefaultConfig(ms, k)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// rcbtMinsup is RCBT's default per-class minimum support: 70% of the
// class, rounded up.
func rcbtMinsup(d *dataset.Dataset, cls dataset.Label) int {
	return engine.RelativeMinsup(0.7, d.ClassCount(cls))
}

// mineAtRCBTDefaults times sequential MineTopkRGS of one class at
// RCBT's defaults (k 10, minsup 70% of the class).
func mineAtRCBTDefaults(b *testing.B, d *dataset.Dataset, cls dataset.Label) {
	cfg := core.DefaultConfig(rcbtMinsup(d, cls), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Mine(d, cls, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineTall mines both classes of PC/30 with a 4× cohort (408
// rows × 185 items), the shape where mining is most of a train job.
// The class=N runs mine one class on a context that cannot be
// cancelled. The train run is a whole rcbt.TrainContext at Workers 2 on
// a cancelable context, the call a train job makes: both classes mine
// at once and share that context, so it also times what the two
// searches' cancellation checks cost each other.
func BenchmarkMineTall(b *testing.B) {
	p := synth.Scaled(synth.PC(), 30)
	p.Name += "x4"
	p.Train1 *= 4
	p.Train0 *= 4
	d := prepDataset(b, p)
	for cls := dataset.Label(0); int(cls) < d.NumClasses(); cls++ {
		b.Run(fmt.Sprintf("class=%d", cls), func(b *testing.B) { mineAtRCBTDefaults(b, d, cls) })
	}
	b.Run("train", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rcbt.TrainContext(ctx, d, rcbt.Config{Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMineWide mines class 1 of OC/5 (210 rows × 3,309 items), a
// width where a node's cost is set by the item universe.
func BenchmarkMineWide(b *testing.B) {
	mineAtRCBTDefaults(b, prepDataset(b, synth.Scaled(synth.OC(), 5)), 1)
}

// BenchmarkFig6Baselines measures the baseline miners at the same
// support level (Figure 6 a-d, FARMER / FARMER+prefix / CHARM / CLOSET+
// series). Runs are node-budgeted, as in the paper's DNF entries.
func BenchmarkFig6Baselines(b *testing.B) {
	const budget = 2_000_000
	for _, p := range scaledProfiles() {
		d := prepDataset(b, p)
		ms := minsupOf(d, 0.9)
		for _, cfg := range []struct {
			name   string
			engine farmer.Engine
		}{
			{"FARMER", farmer.EngineNaive},
			{"FARMER+prefix", farmer.EnginePrefix},
			{"FARMER+bitset", farmer.EngineBitset},
		} {
			b.Run(p.Name+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := farmer.Mine(d, 0, farmer.Config{
						Minsup: ms, Minconf: 0.9, Engine: cfg.engine, MaxNodes: budget,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		colMS := ms
		b.Run(p.Name+"/CHARM", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := charm.Mine(d, charm.Config{Minsup: colMS, MaxNodes: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/CLOSET+", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := closet.Mine(d, closet.Config{Minsup: colMS, MaxNodes: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6eVaryK measures MineTopkRGS as k grows (Figure 6e) on
// the ALL and PC profiles.
func BenchmarkFig6eVaryK(b *testing.B) {
	for _, p := range scaledProfiles() {
		if n := p.Name; n != "ALL/30" && n != "PC/30" {
			continue
		}
		d := prepDataset(b, p)
		ms := minsupOf(d, 0.8)
		for _, k := range []int{1, 20, 40, 60, 80, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", p.Name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Mine(d, 0, core.DefaultConfig(ms, k)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2Classifiers measures full classifier training and
// evaluation per dataset (Table 2).
func BenchmarkTable2Classifiers(b *testing.B) {
	for _, p := range scaledProfiles() {
		train, test, err := synth.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Evaluate(train, test, eval.Options{
					MinsupFrac: 0.85, K: 5, NL: 10, BagRounds: 5, BoostRounds: 5,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7VaryNL measures RCBT training as nl grows (Figure 7).
func BenchmarkFig7VaryNL(b *testing.B) {
	for _, nl := range []int{1, 10, 20, 30} {
		b.Run(fmt.Sprintf("nl=%d", nl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Fig7(io.Discard, benchScale, []int{nl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8GeneRanks measures the Figure 8 gene-participation
// analysis on the PC profile.
func BenchmarkFig8GeneRanks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(context.Background(), io.Discard, benchScale, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefaultClassStats measures the §6.2 default-class analysis.
func BenchmarkDefaultClassStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.DefaultClassStats(io.Discard, benchScale, eval.Options{
			MinsupFrac: 0.85, K: 5, NL: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinsupSweep measures the §6.2 minsup sensitivity sweep.
func BenchmarkMinsupSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.MinsupSweep(io.Discard, benchScale, []float64{0.8, 0.85}); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationBench runs MineTopkRGS with one optimization toggled.
func ablationBench(b *testing.B, mod func(*core.Config)) {
	for _, p := range scaledProfiles() {
		d := prepDataset(b, p)
		ms := minsupOf(d, 0.9)
		for _, on := range []bool{true, false} {
			name := p.Name + "/on"
			if !on {
				name = p.Name + "/off"
			}
			b.Run(name, func(b *testing.B) {
				cfg := core.DefaultConfig(ms, 10)
				cfg.MaxNodes = 3_000_000
				if !on {
					mod(&cfg)
				}
				for i := 0; i < b.N; i++ {
					if _, err := core.Mine(d, 0, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationTopKPruning toggles the dynamic-confidence pruning.
func BenchmarkAblationTopKPruning(b *testing.B) {
	ablationBench(b, func(c *core.Config) { c.TopKPruning = false })
}

// BenchmarkAblationBackwardPruning toggles the closedness check.
func BenchmarkAblationBackwardPruning(b *testing.B) {
	ablationBench(b, func(c *core.Config) { c.BackwardPruning = false })
}

// BenchmarkAblationSingleItemInit toggles single-item seeding.
func BenchmarkAblationSingleItemInit(b *testing.B) {
	ablationBench(b, func(c *core.Config) { c.SeedInit = false })
}

// BenchmarkAblationRowOrder toggles ascending-item-count row ordering.
func BenchmarkAblationRowOrder(b *testing.B) {
	ablationBench(b, func(c *core.Config) { c.SortRowsByItemCount = false })
}

// BenchmarkAblationPrefixTree compares the three FARMER table engines
// (the paper's FARMER vs FARMER+prefix representation ablation).
func BenchmarkAblationPrefixTree(b *testing.B) {
	for _, p := range scaledProfiles() {
		d := prepDataset(b, p)
		ms := minsupOf(d, 0.9)
		for _, eng := range []farmer.Engine{farmer.EngineNaive, farmer.EnginePrefix, farmer.EngineBitset} {
			b.Run(p.Name+"/"+eng.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := farmer.Mine(d, 0, farmer.Config{
						Minsup: ms, Minconf: 0.9, Engine: eng, MaxNodes: 2_000_000,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
