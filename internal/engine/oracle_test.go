package engine_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/carpenter"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/farmer"
	"repro/internal/synth"
)

// oracleDataset draws and discretizes one synthetic profile.
func oracleDataset(t *testing.T, p synth.Profile) *dataset.Dataset {
	t.Helper()
	train, _, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dz.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type namedDataset struct {
	name string
	d    *dataset.Dataset
}

// oracleDatasets returns every synth profile at scale 30 plus the
// train-tall shape: PC/30 with a 4× cohort (408 rows × 185 items).
func oracleDatasets(t *testing.T) []namedDataset {
	t.Helper()
	var out []namedDataset
	for _, p := range synth.Profiles() {
		p = synth.Scaled(p, 30)
		out = append(out, namedDataset{p.Name, oracleDataset(t, p)})
	}
	tall := synth.Scaled(synth.PC(), 30)
	tall.Name = tallName
	tall.Train1 *= 4
	tall.Train0 *= 4
	return append(out, namedDataset{tall.Name, oracleDataset(t, tall)})
}

const tallName = "PC/30x4"

// againstReference runs mine once on the engine's kernel and once on
// the reference kernel, and fails unless the two results deep-equal.
func againstReference[R any](t *testing.T, name string, mine func() (R, error)) {
	t.Helper()
	start := time.Now()
	got, err := mine()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kernelTime := time.Since(start)
	start = time.Now()
	restore := engine.UseReferenceKernel()
	want, err := mine()
	restore()
	if err != nil {
		t.Fatalf("%s on the reference kernel: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: output differs from the reference kernel's", name)
	}
	t.Logf("%s: kernel %v, reference %v", name, kernelTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
}

// oracleNodes is the node cap of an oracle run. OC/30 and the tall
// shape reach 50,000. The race detector slows the kernel about
// twentyfold and the miners run on one goroutine, so under -race every
// run is cut at 2,000 nodes.
func oracleNodes() int {
	if engine.RaceEnabled {
		return 2_000
	}
	return 50_000
}

// TestTopkMatchesReferenceKernelOracle deep-equals MineTopkRGS's per-row
// lists, groups and engine.Stats against the reference kernel, at
// RCBT's defaults and under every ablation, a MinConf floor, k 1,
// k 100 and a MaxNodes cut, on both classes of each dataset. Runs stop
// at oracleNodes, except the tall shape at RCBT's defaults without
// -race: that is a whole train-tall mine (about 480,000 and 320,000
// nodes). The cut runs stop at 1,000.
func TestTopkMatchesReferenceKernelOracle(t *testing.T) {
	configs := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"defaults", func(*core.Config) {}},
		{"no-seed-init", func(c *core.Config) { c.SeedInit = false }},
		{"no-topk-pruning", func(c *core.Config) { c.TopKPruning = false }},
		{"no-backward-pruning", func(c *core.Config) { c.BackwardPruning = false }},
		{"no-row-sort", func(c *core.Config) { c.SortRowsByItemCount = false }},
		{"no-dynamic-minsup", func(c *core.Config) { c.DynamicMinsup = false }},
		{"minconf-0.8", func(c *core.Config) { c.MinConf = 0.8 }},
		{"k1", func(c *core.Config) { c.K = 1 }},
		{"k100", func(c *core.Config) { c.K = 100 }},
		{"maxnodes-cut", func(c *core.Config) { c.MaxNodes = 1_000 }},
	}
	for _, nd := range oracleDatasets(t) {
		name, d := nd.name, nd.d
		for cls := dataset.Label(0); int(cls) < d.NumClasses(); cls++ {
			minsup := max(int(math.Ceil(0.7*float64(d.ClassCount(cls)))), 1)
			for _, c := range configs {
				cfg := core.DefaultConfig(minsup, 10)
				if name != tallName || c.name != "defaults" || engine.RaceEnabled {
					cfg.MaxNodes = oracleNodes()
				}
				c.mod(&cfg)
				againstReference(t, fmt.Sprintf("%s/class=%d/%s", name, cls, c.name), func() (*core.Result, error) {
					return core.MineContext(context.Background(), d, cls, cfg)
				})
			}
		}
	}
}

// TestStaticVisitorsMatchReferenceKernelOracle deep-equals the other
// two miners on the shared kernel against the reference: FARMER's
// bitset engine with a minimum confidence and with a minimum
// chi-square, and CARPENTER's closed itemsets.
func TestStaticVisitorsMatchReferenceKernelOracle(t *testing.T) {
	for _, nd := range oracleDatasets(t) {
		name, d := nd.name, nd.d
		for cls := dataset.Label(0); int(cls) < d.NumClasses(); cls++ {
			minsup := max(int(math.Ceil(0.7*float64(d.ClassCount(cls)))), 1)
			for _, cfg := range []farmer.Config{
				{Minsup: minsup, Minconf: 0.9, MaxNodes: oracleNodes()},
				{Minsup: minsup, MinChi: 10, MaxNodes: oracleNodes()},
			} {
				againstReference(t, fmt.Sprintf("farmer/%s/class=%d/minconf=%v/minchi=%v", name, cls, cfg.Minconf, cfg.MinChi), func() (*farmer.Result, error) {
					return farmer.MineContext(context.Background(), d, cls, cfg)
				})
			}
		}
		cfg := carpenter.Config{Minsup: max(d.NumRows()/2, 1), MaxNodes: oracleNodes()}
		againstReference(t, "carpenter/"+name, func() (*carpenter.Result, error) {
			return carpenter.MineContext(context.Background(), d, cfg)
		})
	}
}
