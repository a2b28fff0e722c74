package engine

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// collector is a no-prune visitor that records every group.
type collector struct {
	groups []collected
}

type collected struct {
	items []int
	rows  []int
	xp    int
	xn    int
}

func (c *collector) UpdateThresholds(xPos, candPos []int) Threshold       { return Threshold{} }
func (c *collector) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool { return false }
func (c *collector) PruneAfterScan(_ Threshold, xp, xn, mp, rn int) bool  { return false }
func (c *collector) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	c.groups = append(c.groups, collected{
		items: append([]int(nil), items...),
		rows:  rows.Indices(),
		xp:    xp,
		xn:    xn,
	})
}

// enumeratorFor builds an enumerator over the running example with
// identity row order (already class dominant: rows 0-2 are class C).
func enumeratorFor(t *testing.T, v Visitor, disableBackward bool) (*Enumerator, []int) {
	t.Helper()
	d, _ := dataset.RunningExample()
	itemRows := make([]*bitset.Set, d.NumItems())
	items := make([]int, d.NumItems())
	for i := 0; i < d.NumItems(); i++ {
		itemRows[i] = d.ItemRows(i)
		items[i] = i
	}
	return &Enumerator{
		NumRows:         d.NumRows(),
		NumPos:          3,
		ItemRows:        itemRows,
		Visitor:         v,
		DisableBackward: disableBackward,
	}, items
}

func mustRun(t *testing.T, e *Enumerator, items []int) Stats {
	t.Helper()
	stats, err := e.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestEnumerationFindsAllClosedSets(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	stats := mustRun(t, eng, items)
	if stats.Nodes == 0 {
		t.Fatal("no nodes visited")
	}
	// Collect distinct closed row sets; compare against brute force over
	// the dataset.
	d, _ := dataset.RunningExample()
	want := map[string]bool{}
	for mask := 1; mask < 1<<5; mask++ {
		rows := bitset.New(5)
		for r := 0; r < 5; r++ {
			if mask&(1<<r) != 0 {
				rows.Add(r)
			}
		}
		its := d.CommonItems(rows)
		if len(its) == 0 {
			continue
		}
		sup := d.SupportSet(its)
		if sup.CountBelow(3) == 0 { // xp > 0 filter matches engine
			continue
		}
		want[sup.Key()] = true
	}
	got := map[string]bool{}
	for _, g := range c.groups {
		s := bitset.New(5)
		for _, r := range g.rows {
			s.Add(r)
		}
		if got[s.Key()] {
			t.Fatalf("closed set %v reported twice with backward pruning on", g.rows)
		}
		got[s.Key()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("found %d closed sets, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatal("missing closed set")
		}
	}
}

func TestDisableBackwardStillComplete(t *testing.T) {
	on := &collector{}
	engOn, items := enumeratorFor(t, on, false)
	statsOn := mustRun(t, engOn, items)

	off := &collector{}
	engOff, items2 := enumeratorFor(t, off, true)
	statsOff := mustRun(t, engOff, items2)

	if statsOff.Nodes < statsOn.Nodes {
		t.Fatalf("disabling backward pruning should not reduce nodes: %d < %d", statsOff.Nodes, statsOn.Nodes)
	}
	// The distinct closed sets must be identical.
	distinct := func(gs []collected) map[string]bool {
		m := map[string]bool{}
		for _, g := range gs {
			s := bitset.New(5)
			for _, r := range g.rows {
				s.Add(r)
			}
			m[s.Key()] = true
		}
		return m
	}
	a, b := distinct(on.groups), distinct(off.groups)
	if len(a) != len(b) {
		t.Fatalf("distinct closed sets differ: %d vs %d", len(a), len(b))
	}
}

func TestGroupRowConsistency(t *testing.T) {
	// For every reported group: xp+xn == |rows|, items nonempty and
	// sorted, rows = support set of items.
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	mustRun(t, eng, items)
	d, _ := dataset.RunningExample()
	for _, g := range c.groups {
		if g.xp+g.xn != len(g.rows) {
			t.Fatalf("xp+xn=%d but |rows|=%d", g.xp+g.xn, len(g.rows))
		}
		if len(g.items) == 0 || !sort.IntsAreSorted(g.items) {
			t.Fatalf("bad items %v", g.items)
		}
		sup := d.SupportSet(g.items).Indices()
		got := append([]int(nil), g.rows...)
		sort.Ints(got)
		if len(sup) != len(got) {
			t.Fatalf("rows %v != support %v of items %v", got, sup, g.items)
		}
		for i := range sup {
			if sup[i] != got[i] {
				t.Fatalf("rows %v != support %v", got, sup)
			}
		}
	}
}

func TestEmptyRun(t *testing.T) {
	c := &collector{}
	eng, _ := enumeratorFor(t, c, false)
	stats := mustRun(t, eng, nil)
	if stats.Nodes != 0 || len(c.groups) != 0 {
		t.Fatal("empty item list must do nothing")
	}
}

// pruneAll prunes everything at the loose stage.
type pruneAll struct{ collector }

func (p *pruneAll) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool { return true }

func TestPruneBeforeScanStopsDescent(t *testing.T) {
	p := &pruneAll{}
	eng, items := enumeratorFor(t, p, false)
	stats := mustRun(t, eng, items)
	if stats.Nodes != 1 || stats.PrunedBeforeScan != 1 {
		t.Fatalf("stats = %+v, want exactly the root pruned", stats)
	}
	if len(p.groups) != 0 {
		t.Fatal("no groups should be reported")
	}
}

func TestMaxNodesAborts(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	eng.MaxNodes = 2
	stats := mustRun(t, eng, items)
	if !stats.Aborted {
		t.Fatal("tiny budget should abort")
	}
	if stats.Nodes > 3 {
		t.Fatalf("nodes = %d, want <= 3", stats.Nodes)
	}
	if ErrNodeBudget.Error() == "" {
		t.Fatal("ErrNodeBudget must describe itself")
	}
}

func TestEmptyUniverse(t *testing.T) {
	c := &collector{}
	eng := &Enumerator{NumRows: 0, NumPos: 0, Visitor: c}
	if stats := mustRun(t, eng, []int{0}); stats.Nodes != 0 {
		t.Fatal("zero-row engine must do nothing")
	}
}

func TestCancelledContextStopsRun(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := eng.Run(ctx, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Aborted {
		t.Fatal("cancellation must not masquerade as a budget abort")
	}
}

// cancelAtVisitor cancels the run's context on its after-th
// UpdateThresholds call, so the cancel lands in the middle of the
// search rather than before it.
type cancelAtVisitor struct {
	collector
	cancel context.CancelFunc
	after  int
	calls  int
}

func (v *cancelAtVisitor) UpdateThresholds(xPos, candPos []int) Threshold {
	v.calls++
	if v.calls == v.after {
		v.cancel()
	}
	return Threshold{}
}

// TestCancelMidRunAbortsPromptly cancels a run part-way through: the
// next node entry must fail the budget check, so the search stops
// within one node of the cancel instead of finishing the tree.
func TestCancelMidRunAbortsPromptly(t *testing.T) {
	seq, items := synthEnumerator(&minsupVisitor{minsup: 2}, 60, 30, 30)
	full := mustRun(t, seq, items)
	if full.Nodes < 500 {
		t.Fatalf("synthetic tree too small for a mid-run cancel: %d nodes", full.Nodes)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v := &cancelAtVisitor{cancel: cancel, after: 40}
	eng, items := synthEnumerator(v, 60, 30, 30)
	stats, err := eng.Run(ctx, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Aborted {
		t.Fatal("cancellation must not masquerade as a budget abort")
	}
	// UpdateThresholds runs at least once per node, so the cancel lands
	// by node 40; the next node entry is counted, then stops the search.
	if stats.Nodes > 41 {
		t.Fatalf("cancel was not prompt: visited %d of %d nodes", stats.Nodes, full.Nodes)
	}
}

// TestReuseAcrossRuns exercises the enumerator's retained state (arena,
// row→item index, budget): repeated Runs on one Enumerator must produce
// identical output every time, including right after a budget-aborted
// Run.
func TestReuseAcrossRuns(t *testing.T) {
	ref := &collector{}
	engRef, items := enumeratorFor(t, ref, false)
	refStats := mustRun(t, engRef, items)

	c := &collector{}
	eng, items2 := enumeratorFor(t, c, false)
	for run := 0; run < 3; run++ {
		c.groups = c.groups[:0]
		stats := mustRun(t, eng, items2)
		if !reflect.DeepEqual(c.groups, ref.groups) {
			t.Fatalf("run %d: groups differ from a fresh enumerator's", run)
		}
		if stats != refStats {
			t.Fatalf("run %d: stats %+v, want %+v", run, stats, refStats)
		}
		if run == 1 {
			// Interleave a budget-aborted Run; the next full Run must be
			// unaffected by the aborted search's leftover arena state.
			eng.MaxNodes = 3
			if stats := mustRun(t, eng, items2); !stats.Aborted {
				t.Fatal("tiny budget should abort")
			}
			eng.MaxNodes = 0
		}
	}
}

func TestBudgetChargePrefersContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBudget(ctx, 1)
	if err := b.Charge(5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled over ErrNodeBudget", err)
	}
	b = NewBudget(nil, 2)
	if err := b.Charge(2); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := b.Charge(1); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if b.Nodes() != 3 {
		t.Fatalf("Nodes() = %d, want 3", b.Nodes())
	}
}

type fakeMiner struct{ name string }

func (m fakeMiner) Name() string { return m.name }
func (m fakeMiner) Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Result, Stats, error) {
	return &Result{}, Stats{}, nil
}

func TestRegistry(t *testing.T) {
	Register(fakeMiner{name: "zz-test-a"})
	Register(fakeMiner{name: "zz-test-b"})
	defer func() {
		registryMu.Lock()
		delete(registry, "zz-test-a")
		delete(registry, "zz-test-b")
		registryMu.Unlock()
	}()
	if _, ok := Lookup("zz-test-a"); !ok {
		t.Fatal("registered miner not found")
	}
	if _, ok := Lookup("zz-test-missing"); ok {
		t.Fatal("unregistered miner found")
	}
	names := Miners()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Miners() not sorted: %v", names)
	}
}
