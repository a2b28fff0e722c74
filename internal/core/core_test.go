package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// names maps a group's antecedent to sorted item names for readable
// assertions on the running example.
func names(d *dataset.Dataset, g *rules.Group) string {
	ns := d.ItemNames(g.Antecedent)
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n[:1] // item names are single letters in the example
	}
	sort.Strings(parts)
	s := ""
	for _, p := range parts {
		s += p
	}
	return s
}

func TestRunningExampleTop1ClassC(t *testing.T) {
	// Example 1.1 with the paper's own Definition 2.2 applied strictly:
	// r1, r2 -> abc (conf 1.0, sup 2). For r3 the most significant
	// covering group is {c} (conf 0.75, sup 3), which dominates the
	// cde (conf 0.667) quoted in the example prose — the example
	// overlooks the single-item group; the formal definitions win here.
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 0, DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantTop := map[int]struct {
		ant  string
		conf float64
		sup  int
	}{
		0: {"abc", 1.0, 2},
		1: {"abc", 1.0, 2},
		2: {"c", 0.75, 3},
	}
	for row, want := range wantTop {
		gs := res.PerRow[row]
		if len(gs) != 1 {
			t.Fatalf("row %d: %d groups, want 1", row, len(gs))
		}
		g := gs[0]
		if got := names(d, g); got != want.ant {
			t.Errorf("row %d antecedent = %s, want %s", row, got, want.ant)
		}
		if g.Confidence != want.conf || g.Support != want.sup {
			t.Errorf("row %d (conf,sup) = (%v,%d), want (%v,%d)", row, g.Confidence, g.Support, want.conf, want.sup)
		}
	}
}

func TestRunningExampleTop1ClassNotC(t *testing.T) {
	// r4, r5 -> efg with confidence 2/3 and support 2 (Example 1.1).
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 1, DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{3, 4} {
		gs := res.PerRow[row]
		if len(gs) != 1 {
			t.Fatalf("row %d: %d groups, want 1", row, len(gs))
		}
		g := gs[0]
		if got := names(d, g); got != "efg" {
			t.Errorf("row %d antecedent = %s, want efg", row, got)
		}
		if g.Support != 2 || g.Confidence != 2.0/3.0 {
			t.Errorf("row %d (conf,sup) = (%v,%d)", row, g.Confidence, g.Support)
		}
	}
}

func TestRunningExampleTopKLargerK(t *testing.T) {
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 0, DefaultConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// r1's covering groups with sup>=2, by significance:
	// abc (1.0, 2), c (0.75, 3), cde (0.667, 2), e (0.5, 2)... top-3 are
	// abc, c, cde.
	gs := res.PerRow[0]
	if len(gs) != 3 {
		t.Fatalf("r1 has %d groups, want 3", len(gs))
	}
	got := []string{names(d, gs[0]), names(d, gs[1]), names(d, gs[2])}
	want := []string{"abc", "c", "cde"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("r1 top-3 = %v, want %v", got, want)
	}
}

func TestUpperBoundsAreClosed(t *testing.T) {
	// Every reported antecedent must be closed: I(R(A)) == A.
	d, _ := dataset.RunningExample()
	for cls := dataset.Label(0); cls <= 1; cls++ {
		res, err := Mine(d, cls, DefaultConfig(1, 5))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			sup := d.SupportSet(g.Antecedent)
			closed := d.CommonItems(sup)
			if !reflect.DeepEqual(closed, g.Antecedent) {
				t.Fatalf("class %d: antecedent %v not closed (closure %v)", cls, g.Antecedent, closed)
			}
			if !sup.Equal(g.Rows) {
				t.Fatalf("class %d: Rows mismatch for %v", cls, g.Antecedent)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Mine(d, 0, DefaultConfig(2, 0)); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Mine(d, 0, DefaultConfig(0, 1)); err == nil {
		t.Fatal("minsup=0 must error")
	}
	if _, err := Mine(d, 9, DefaultConfig(2, 1)); err == nil {
		t.Fatal("bad class must error")
	}
}

func TestMinsupLargerThanClass(t *testing.T) {
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 0, DefaultConfig(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequentItems != 0 || len(res.Groups) != 0 {
		t.Fatal("minsup beyond class size must yield no groups")
	}
	// Per-row entries still exist (empty) for every positive row.
	if len(res.PerRow) != 3 {
		t.Fatalf("PerRow has %d entries, want 3", len(res.PerRow))
	}
}

func TestAllIdenticalRows(t *testing.T) {
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "x"}, {GeneName: "y"}},
		Rows:       [][]int{{0, 1}, {0, 1}, {0, 1}},
		Labels:     []dataset.Label{0, 0, 1},
		ClassNames: []string{"C", "notC"},
	}
	res, err := Mine(d, 0, DefaultConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Single rule group: xy -> C with support 2, confidence 2/3.
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(res.Groups))
	}
	g := res.Groups[0]
	if g.Support != 2 || g.Confidence != 2.0/3.0 || len(g.Antecedent) != 2 {
		t.Fatalf("group = %+v", g)
	}
}

// assertSameTopK compares miner output to the oracle on (conf, sup)
// sequences per row; antecedents are compared only when the
// significance is strict (ties may be broken differently).
func assertSameTopK(t *testing.T, d *dataset.Dataset, cls dataset.Label, minsup, k int, cfg Config) {
	t.Helper()
	res, err := Mine(d, cls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceTopK(d, cls, minsup, k)
	for row, wg := range want {
		gg := res.PerRow[row]
		if len(gg) != len(wg) {
			t.Fatalf("row %d: got %d groups, want %d\ngot: %v\nwant: %v",
				row, len(gg), len(wg), render(d, gg), render(d, wg))
		}
		for i := range wg {
			if gg[i].Confidence != wg[i].Confidence || gg[i].Support != wg[i].Support {
				t.Fatalf("row %d rank %d: got (%v,%d), want (%v,%d)",
					row, i, gg[i].Confidence, gg[i].Support, wg[i].Confidence, wg[i].Support)
			}
		}
	}
}

func render(d *dataset.Dataset, gs []*rules.Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Render(d)
	}
	return out
}

func TestAgainstOracleDefaults(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(3)
		k := 1 + r.Intn(4)
		for cls := dataset.Label(0); cls <= 1; cls++ {
			if d.ClassCount(cls) == 0 {
				continue
			}
			res, err := Mine(d, cls, DefaultConfig(minsup, k))
			if err != nil {
				return false
			}
			want := bruteForceTopK(d, cls, minsup, k)
			for row, wg := range want {
				gg := res.PerRow[row]
				if len(gg) != len(wg) {
					return false
				}
				for i := range wg {
					if gg[i].Confidence != wg[i].Confidence || gg[i].Support != wg[i].Support {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAgainstOracleAblations(t *testing.T) {
	// Every ablation configuration must still produce correct output —
	// the optimizations change work, not results.
	configs := []func(c *Config){
		func(c *Config) { c.SeedInit = false },
		func(c *Config) { c.TopKPruning = false },
		func(c *Config) { c.BackwardPruning = false },
		func(c *Config) { c.SortRowsByItemCount = false },
		func(c *Config) { c.DynamicMinsup = false },
		func(c *Config) {
			c.SeedInit, c.TopKPruning, c.BackwardPruning = false, false, false
			c.SortRowsByItemCount, c.DynamicMinsup = false, false
		},
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		d := randomDataset(r)
		minsup := 1 + r.Intn(2)
		k := 1 + r.Intn(3)
		for ci, mod := range configs {
			cfg := DefaultConfig(minsup, k)
			mod(&cfg)
			for cls := dataset.Label(0); cls <= 1; cls++ {
				if d.ClassCount(cls) == 0 {
					continue
				}
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							t.Fatalf("trial %d config %d class %d: panic %v", trial, ci, cls, rec)
						}
					}()
					assertSameTopK(t, d, cls, minsup, k, cfg)
				}()
			}
		}
	}
}

func TestTopKPruningReducesWork(t *testing.T) {
	// On the running example with k=1, pruning must not increase node
	// count and typically reduces it.
	d, _ := dataset.RunningExample()
	on, err := Mine(d, 0, DefaultConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, 1)
	cfg.TopKPruning = false
	cfg.SeedInit = false
	cfg.DynamicMinsup = false
	off, err := Mine(d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.Nodes > off.Stats.Nodes {
		t.Fatalf("pruning increased node count: %d > %d", on.Stats.Nodes, off.Stats.Nodes)
	}
}

func TestPerRowListsSortedAndCovering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		res, err := Mine(d, 0, DefaultConfig(1, 3))
		if err != nil {
			return false
		}
		for row, gs := range res.PerRow {
			rowItems := d.RowItemSet(row)
			for i, g := range gs {
				if !g.Covers(rowItems) {
					return false // every listed group must cover its row
				}
				if g.Support < 1 {
					return false
				}
				if i > 0 && g.MoreSignificant(gs[i-1]) {
					return false // significance order
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsBoundedByKTimesRows(t *testing.T) {
	// "The number of discovered top-k covering rule groups is bounded by
	// the product of k and the number of rows" (Section 1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		k := 1 + r.Intn(3)
		res, err := Mine(d, 0, DefaultConfig(1, k))
		if err != nil {
			return false
		}
		return len(res.Groups) <= k*d.ClassCount(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicMinsupRaise engineers a dataset where every row's k
// groups reach 100% confidence, so the §4.1.1 dynamic minsup raise can
// fire; results must still match the oracle and the raise must not
// increase work.
func TestDynamicMinsupRaise(t *testing.T) {
	// Six positive rows, two negative. Five "perfect" items cover large,
	// distinct positive subsets; negatives carry an unrelated item.
	rowsOf := func(rs ...int) []int { return rs }
	itemRows := [][]int{
		rowsOf(0, 1, 2, 3, 4, 5),
		rowsOf(0, 1, 2, 3, 4),
		rowsOf(1, 2, 3, 4, 5),
		rowsOf(0, 2, 3, 4, 5),
		rowsOf(0, 1, 3, 4, 5),
		rowsOf(6, 7), // negative-only item
	}
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := range itemRows {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	rows := make([][]int, 8)
	for it, rs := range itemRows {
		for _, r := range rs {
			rows[r] = append(rows[r], it)
		}
	}
	for r := 0; r < 8; r++ {
		d.Rows = append(d.Rows, rows[r])
		if r < 6 {
			d.Labels = append(d.Labels, 0)
		} else {
			d.Labels = append(d.Labels, 1)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	cfgOn := DefaultConfig(2, 2)
	cfgOff := cfgOn
	cfgOff.DynamicMinsup = false
	assertSameTopK(t, d, 0, 2, 2, cfgOn)
	assertSameTopK(t, d, 0, 2, 2, cfgOff)

	on, err := Mine(d, 0, cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Mine(d, 0, cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.Nodes > off.Stats.Nodes {
		t.Fatalf("dynamic minsup increased nodes: %d > %d", on.Stats.Nodes, off.Stats.Nodes)
	}
}

// TestMaxNodesPartialResults checks the bounded-mining contract: an
// aborted run reports Aborted and still returns valid (covering,
// sorted) partial lists.
func TestMaxNodesPartialResults(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := randomDataset(r)
	cfg := DefaultConfig(1, 3)
	cfg.MaxNodes = 2
	res, err := Mine(d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Aborted {
		t.Fatal("budget of 2 nodes should abort")
	}
	for row, gs := range res.PerRow {
		items := d.RowItemSet(row)
		for _, g := range gs {
			if !g.Covers(items) {
				t.Fatal("partial results must still cover their rows")
			}
		}
	}
}

// wideDataset builds a dense dataset: rows*items with ~2/3 density and
// alternating labels.
func wideDataset(r *rand.Rand, rows, items int) *dataset.Dataset {
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < items; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < rows; row++ {
		var its []int
		for i := 0; i < items; i++ {
			if r.Intn(3) != 0 {
				its = append(its, i)
			}
		}
		d.Rows = append(d.Rows, its)
		d.Labels = append(d.Labels, dataset.Label(row%2))
	}
	return d
}

func TestMineContextCancelled(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, d, 0, DefaultConfig(2, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled mine must not return a result")
	}
}

func TestMineContextDeadline(t *testing.T) {
	// A dataset dense enough that the search cannot finish within the
	// deadline: the run must come back promptly with the context error.
	r := rand.New(rand.NewSource(3))
	d := wideDataset(r, 60, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MineContext(ctx, d, 0, DefaultConfig(1, 20))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// entryVisitor returns a visitor over numPos rows whose lists hold
// random groups, so row thresholds differ, tie, and sit at the MinConf
// floor.
func entryVisitor(r *rand.Rand, numPos int, cfg Config) *topkVisitor {
	v := newTopkVisitor(cfg, 0, numPos)
	for p := range v.lists {
		for n := r.Intn(cfg.K + 2); n > 0; n-- {
			sup := 1 + r.Intn(6)
			v.consider(p, &rules.Group{Support: sup, Confidence: float64(sup) / float64(sup+r.Intn(3))})
		}
	}
	return v
}

// TestPruneOnEntryOracle checks the entry hook against
// what it replaces, the Step 8 threshold over X_p ∪ candPos fed to
// PruneBeforeScan, on random list states, row sets and bounds, with and
// without a MinConf floor.
func TestPruneOnEntryOracle(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const numPos, numRows = 12, 16
	for iter := 0; iter < 10000; iter++ {
		cfg := DefaultConfig(1+r.Intn(3), 1+r.Intn(3))
		cfg.MinConf = []float64{0, 0.5, 0.75, 0.8}[r.Intn(4)]
		cfg.TopKPruning = r.Intn(8) != 0
		seed := r.Int63()
		hook := entryVisitor(rand.New(rand.NewSource(seed)), numPos, cfg)
		scan := entryVisitor(rand.New(rand.NewSource(seed)), numPos, cfg)

		x := bitset.New(numRows)
		var cand []int
		for row := 0; row < numRows; row++ {
			switch r.Intn(3) {
			case 0:
				x.Add(row)
			case 1:
				cand = append(cand, row)
			}
		}
		candPos, candNeg := cand, cand[len(cand):]
		for i, row := range cand {
			if row >= numPos {
				candPos, candNeg = cand[:i], cand[i:]
				break
			}
		}
		xPos := x.AppendIndicesBelow(nil, numPos)
		xp := len(xPos)
		xn := x.Count() - xp

		got := hook.PruneOnEntry(x, candPos, xp, xn, len(candNeg))
		want := scan.PruneBeforeScan(scan.UpdateThresholds(xPos, candPos), xp, xn, len(candPos), len(candNeg))
		if got != want {
			t.Fatalf("iter %d (cfg %+v, x %v, cand %v): PruneOnEntry = %v, threshold scan = %v", iter, cfg, x, cand, got, want)
		}
	}
}

// TestPruneBeforeScanMonotoneAlongChildren pins the property the
// kernel's early stop rests on (topkVisitor.MonotoneChildren): walking
// a node's ascending survivors as visitNode's Step-14 loop does, against
// the node's threshold, once PruneBeforeScan prunes a child it prunes
// every later one, also when effMinsup rises between children. Random
// list states, minimum supports, MinConf floors of 0, 0.5 and 0.8, and
// top-k pruning on and off.
func TestPruneBeforeScanMonotoneAlongChildren(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	const numPos, numRows = 12, 20
	cut := 0 // walks that pruned a child with later children left
	for iter := 0; iter < 20000; iter++ {
		cfg := DefaultConfig(1+r.Intn(4), 1+r.Intn(3))
		cfg.MinConf = []float64{0, 0.5, 0.8}[r.Intn(3)]
		cfg.TopKPruning = r.Intn(4) != 0
		v := entryVisitor(r, numPos, cfg)
		if !v.MonotoneChildren() {
			t.Fatal("topkVisitor must opt in to the early stop")
		}
		v.effMinsup += r.Intn(3)

		// The node: the positive rows of its closed set, its negative
		// count, and the candidates that survived its projection.
		var xPos, survivors []int
		xn := 0
		for row := 0; row < numRows; row++ {
			switch {
			case r.Intn(3) == 0 && row < numPos:
				xPos = append(xPos, row)
			case r.Intn(4) == 0 && row >= numPos:
				xn++
			case r.Intn(2) == 0:
				survivors = append(survivors, row)
			}
		}
		xp, mp := len(xPos), 0
		for mp < len(survivors) && survivors[mp] < numPos {
			mp++
		}
		th := v.UpdateThresholds(xPos, survivors[:mp])

		first := -1
		posLeft := mp
		for i, row := range survivors {
			childXp, childXn := xp, xn
			if row < numPos {
				posLeft--
				childXp++
			} else {
				childXn++
			}
			negLeft := len(survivors) - i - 1 - posLeft
			pruned := v.PruneBeforeScan(th, childXp, childXn, posLeft, negLeft)
			if first >= 0 && !pruned {
				t.Fatalf("iter %d (cfg %+v, th %+v, xp %d, xn %d, survivors %v): child %d pruned, child %d kept",
					iter, cfg, th, xp, xn, survivors, first, i)
			}
			if pruned && first < 0 {
				first = i
			}
			if r.Intn(4) == 0 {
				v.effMinsup++ // a kept child's subtree raised it
			}
		}
		if first >= 0 && first < len(survivors)-1 {
			cut++
		}
	}
	if cut < 1000 {
		t.Fatalf("only %d of 20000 walks pruned a child before the last", cut)
	}
	t.Logf("%d of 20000 walks pruned a child before the last", cut)
}

// TestPruneOnEntryAllocFree pins the topk entry hook at zero
// allocations, both when the scan runs through every candidate and
// every positive row of X, and when a row of X admits the bound.
func TestPruneOnEntryAllocFree(t *testing.T) {
	v := newTopkVisitor(DefaultConfig(1, 1), 0, 8)
	for p := range v.lists {
		if p != 5 { // row 5's empty list admits every bound
			v.consider(p, &rules.Group{Support: 9, Confidence: 1})
		}
	}
	candPos := []int{6, 7}
	none := bitset.FromIndices(12, 0, 2, 9)
	admits := bitset.FromIndices(12, 0, 2, 5, 9)
	var prunedNone, prunedAdmits bool
	allocs := testing.AllocsPerRun(100, func() {
		prunedNone = v.PruneOnEntry(none, candPos, 2, 1, 2)
		prunedAdmits = v.PruneOnEntry(admits, candPos, 3, 1, 2)
	})
	if !prunedNone || prunedAdmits {
		t.Fatalf("pruned = %v, %v; want true (no row admits), false (row 5 admits)", prunedNone, prunedAdmits)
	}
	if allocs != 0 {
		t.Errorf("PruneOnEntry: %.1f allocs, want exactly 0", allocs)
	}
}
