package bench

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/synth"
)

// Experiments run at heavy gene-count reduction so the suite stays fast;
// the benchrunner CLI runs them at paper scale.
const testScale = Scale(60)

func TestTable1(t *testing.T) {
	var sb strings.Builder
	rows, err := Table1(&sb, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.GenesAfter <= 0 || r.GenesAfter > r.OriginalGenes {
			t.Errorf("%s: genes after = %d of %d", r.Dataset, r.GenesAfter, r.OriginalGenes)
		}
		if r.Train1+r.Train0 != r.Train {
			t.Errorf("%s: class split mismatch", r.Dataset)
		}
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Fatal("missing header")
	}
}

func TestFig6SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime sweep in -short mode")
	}
	cfg := Fig6Config{
		Scale:               testScale,
		Minsups:             []float64{0.9, 0.8},
		BaselineBudget:      200000,
		IncludeColumnMiners: true,
		Datasets:            []string{"ALL/60"},
	}
	var sb strings.Builder
	pts, err := Fig6(context.Background(), &sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no measurements")
	}
	// Every algorithm appears for every minsup.
	algs := map[string]int{}
	for _, p := range pts {
		algs[p.Algorithm]++
	}
	for _, want := range []string{"TopkRGS(k=1)", "TopkRGS(k=100)", "FARMER(c=0.9)", "FARMER+prefix(c=0.9)", "CHARM(diffsets)", "CLOSET+"} {
		if algs[want] != 2 {
			t.Errorf("algorithm %s measured %d times, want 2", want, algs[want])
		}
	}
	// MineTopkRGS must never abort.
	for _, p := range pts {
		if strings.HasPrefix(p.Algorithm, "TopkRGS") && p.Aborted {
			t.Errorf("TopkRGS aborted at minsup %.2f", p.Minsup)
		}
	}
}

func TestFig6e(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime sweep in -short mode")
	}
	var sb strings.Builder
	pts, err := Fig6e(context.Background(), &sb, testScale, 0.8, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Two datasets (ALL, PC) x two k values.
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
}

func TestTable2AndDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("classification run in -short mode")
	}
	opts := eval.Options{MinsupFrac: 0.85, K: 3, NL: 5, BagRounds: 3, BoostRounds: 3}
	var sb strings.Builder
	results, err := Table2(&sb, testScale, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(sb.String(), "Average") {
		t.Fatal("missing average row")
	}
	if _, err := DefaultClassStats(io.Discard, testScale, opts); err != nil {
		t.Fatal(err)
	}
}

func TestFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("classification run in -short mode")
	}
	var sb strings.Builder
	pts, err := Fig7(&sb, testScale, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // ALL and LC x two nl values
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", p.Accuracy)
		}
	}
}

func TestFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis run in -short mode")
	}
	var sb strings.Builder
	res, err := Fig8(context.Background(), &sb, testScale, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.GenesInRules == 0 {
		t.Fatal("no genes participate in rules")
	}
	// The paper's observation: most occurrences come from high-ranked
	// genes.
	if res.HighRankShare < 0.5 {
		t.Errorf("high-rank share = %.2f, expected the top half to dominate", res.HighRankShare)
	}
	// Sorted by frequency.
	for i := 1; i < len(res.Genes); i++ {
		if res.Genes[i].Frequency > res.Genes[i-1].Frequency {
			t.Fatal("genes not sorted by frequency")
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	var sb strings.Builder
	eng, err := AblationEngines(context.Background(), &sb, testScale, 0.85, 0.9, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng) != 12 { // 4 datasets x 3 engines
		t.Fatalf("engine points = %d", len(eng))
	}
	pr, err := AblationPruning(context.Background(), &sb, testScale, 0.85, 3, 300000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) != 24 { // 4 datasets x 6 variants
		t.Fatalf("pruning points = %d", len(pr))
	}
	// Disabling top-k pruning must not reduce node count (unless the
	// budget cut the run short).
	type rec struct {
		nodes   int
		aborted bool
	}
	byKey := map[string]rec{}
	for _, p := range pr {
		byKey[p.Dataset+"|"+p.Variant] = rec{p.Nodes, p.Aborted}
	}
	for _, ds := range []string{"ALL/60", "LC/60", "OC/60", "PC/60"} {
		off := byKey[ds+"|-topk"]
		on := byKey[ds+"|full"]
		if !off.aborted && !on.aborted && off.nodes < on.nodes {
			t.Errorf("%s: disabling top-k pruning reduced nodes (%d < %d)",
				ds, off.nodes, on.nodes)
		}
	}
}

// TestAllMinersRegistered pins the engine registry: every miner in the
// repo is dispatchable by name, which is what lets the experiments (and
// mineVia) avoid per-miner entry points entirely.
func TestAllMinersRegistered(t *testing.T) {
	have := map[string]bool{}
	for _, name := range engine.Miners() {
		have[name] = true
	}
	for _, want := range []string{"carpenter", "charm", "closet", "farmer", "hybrid", "topk"} {
		if !have[want] {
			t.Errorf("miner %q not registered (have %v)", want, engine.Miners())
		}
	}
}

func TestMinsupSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := MinsupSweep(io.Discard, testScale, []float64{0.8, 0.85}); err != nil {
		t.Fatal(err)
	}
}

func TestCharts(t *testing.T) {
	var sb strings.Builder
	ChartFig6(&sb, []Fig6Point{
		{Dataset: "ALL", Algorithm: "TopkRGS(k=1)", Minsup: 0.9, Elapsed: 1e6},
		{Dataset: "ALL", Algorithm: "FARMER(c=0)", Minsup: 0.9, Elapsed: 1e9, Aborted: true},
	})
	if !strings.Contains(sb.String(), "Figure 6") || !strings.Contains(sb.String(), "^") {
		t.Fatalf("fig6 chart:\n%s", sb.String())
	}
	sb.Reset()
	ChartFig7(&sb, []Fig7Point{{Dataset: "ALL", NL: 1, Accuracy: 0.9}, {Dataset: "ALL", NL: 10, Accuracy: 0.91}})
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Fatal("fig7 chart missing")
	}
	sb.Reset()
	ChartFig8(&sb, &Fig8Result{Genes: []Fig8Gene{{Rank: 1, Frequency: 10}, {Rank: 500, Frequency: 1}}})
	if !strings.Contains(sb.String(), "Figure 8") {
		t.Fatal("fig8 chart missing")
	}
}

func TestGroupCount(t *testing.T) {
	if testing.Short() {
		t.Skip("group counting in -short mode")
	}
	var sb strings.Builder
	pts, err := GroupCount(context.Background(), &sb, testScale, []float64{0.95, 0.9}, 0.9, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 { // 4 datasets x 2 supports
		t.Fatalf("points = %d, want 8", len(pts))
	}
	// Counts grow (or cap) as support drops, per dataset.
	for i := 0; i+1 < len(pts); i += 2 {
		hi, lo := pts[i], pts[i+1]
		if !lo.Capped && !hi.Capped && lo.Groups < hi.Groups {
			t.Errorf("%s: groups fell from %d to %d as support dropped", hi.Dataset, hi.Groups, lo.Groups)
		}
	}
}

func TestTopGenes(t *testing.T) {
	if testing.Short() {
		t.Skip("top-gene evaluation in -short mode")
	}
	var sb strings.Builder
	pts, err := TopGenes(&sb, testScale, []int{5, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets x 2 classifiers x (2 tops + all).
	if len(pts) != 24 {
		t.Fatalf("points = %d, want 24", len(pts))
	}
	for _, p := range pts {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", p.Accuracy)
		}
	}
	if !strings.Contains(sb.String(), "top5") {
		t.Fatalf("missing column header:\n%s", sb.String())
	}
}

func TestDefaultFig6Config(t *testing.T) {
	cfg := DefaultFig6Config()
	if cfg.Scale != 1 || len(cfg.Minsups) == 0 || cfg.BaselineBudget == 0 || !cfg.IncludeColumnMiners {
		t.Fatalf("DefaultFig6Config = %+v", cfg)
	}
	// Minsups descend from 0.95 to 0.60, paper-style.
	if cfg.Minsups[0] != 0.95 || cfg.Minsups[len(cfg.Minsups)-1] != 0.6 {
		t.Fatalf("Minsups = %v", cfg.Minsups)
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{"ALL": "ALL", "ALL/30": "ALL", "PC/4": "PC", "": ""}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPrepareInvalidProfile(t *testing.T) {
	p := synth.ALL()
	p.Informative = p.NumGenes + 1
	if _, err := prepare(p); err == nil {
		t.Fatal("invalid profile must error")
	}
}

// TestPaperClaimsAtTestScale pins the paper's robust qualitative claims
// at the test scale: RCBT never scores below CBA and never uses the
// default class more often than CBA, on every dataset.
func TestPaperClaimsAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("classification run in -short mode")
	}
	opts := eval.Options{MinsupFrac: 0.85, K: 3, NL: 5, BagRounds: 3, BoostRounds: 3}
	results, err := DefaultClassStats(io.Discard, testScale, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		rcbtAcc, cbaAcc := r.Accuracy[eval.NameRCBT], r.Accuracy[eval.NameCBA]
		if rcbtAcc < cbaAcc {
			t.Errorf("%s: RCBT %.3f below CBA %.3f", r.Dataset, rcbtAcc, cbaAcc)
		}
		if r.DefaultsUsed[eval.NameRCBT] > r.DefaultsUsed[eval.NameCBA] {
			t.Errorf("%s: RCBT used default %d times, CBA %d — RCBT should rely on defaults less",
				r.Dataset, r.DefaultsUsed[eval.NameRCBT], r.DefaultsUsed[eval.NameCBA])
		}
	}
}
