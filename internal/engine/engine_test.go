package engine

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func (c *collector) PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool { return false }
func (c *collector) UpdateThresholds(xPos, candPos []int) Threshold                 { return Threshold{} }
func (c *collector) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool           { return false }
func (c *collector) PruneAfterScan(_ Threshold, xp, xn, mp, rn int) bool            { return false }
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

func (p *pruneAll) PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool { return true }
func (p *pruneAll) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool           { return true }

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
// PruneOnEntry call, so the cancel lands in the middle of the search
// rather than before it.
type cancelAtVisitor struct {
	collector
	cancel context.CancelFunc
	after  int
	calls  int
}

func (v *cancelAtVisitor) PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool {
	v.calls++
	if v.calls == v.after {
		v.cancel()
	}
	return false
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
	// PruneOnEntry runs once per node, so the cancel lands at node 40;
	// the next node entry is counted, then stops the search.
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

// TestBudgetChargeCancelAndDeadline pins what Charge reads from its
// context's Done channel: nil while the context is live, then
// context.Canceled after a cancel, and context.DeadlineExceeded once a
// deadline passes. Reset rearms the budget on a new context.
func TestBudgetChargeCancelAndDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, 0)
	if err := b.Charge(1); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	for i := 0; i < 3; i++ {
		if err := b.Charge(1); !errors.Is(err, context.Canceled) {
			t.Fatalf("charge %d after cancel: err = %v, want context.Canceled", i, err)
		}
	}
	b.Reset(context.Background(), 0)
	if err := b.Charge(1); err != nil {
		t.Fatalf("after Reset on a live context: %v", err)
	}

	far, cancelFar := context.WithTimeout(context.Background(), time.Hour)
	defer cancelFar()
	b.Reset(far, 0)
	if err := b.Charge(1); err != nil {
		t.Fatalf("before the deadline: %v", err)
	}
	near, cancelNear := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelNear()
	b.Reset(near, 0)
	<-near.Done()
	if err := b.Charge(1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past the deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBudgetChargeNilContextNeverCancels checks that a nil context and
// context.Background, whose Done channels are nil, never stop a charge.
func TestBudgetChargeNilContextNeverCancels(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		b := NewBudget(ctx, 0)
		for i := 0; i < 1000; i++ {
			if err := b.Charge(1); err != nil {
				t.Fatalf("ctx %v, charge %d: %v", ctx, i, err)
			}
		}
		if b.Nodes() != 1000 || b.Remaining() != -1 {
			t.Fatalf("ctx %v: Nodes %d, Remaining %d; want 1000, -1", ctx, b.Nodes(), b.Remaining())
		}
	}
}

// stepVisitor calls at on its after-th PruneOnEntry call, so a test
// can line two searches up mid-run.
type stepVisitor struct {
	collector
	after int
	calls int
	at    func()
}

func (v *stepVisitor) PruneOnEntry(x *bitset.Set, candPos []int, xp, xn, rn int) bool {
	v.calls++
	if v.calls == v.after {
		v.at()
	}
	return false
}

// TestCancelSharedContextStopsBothEnumerators runs two enumerators on
// two goroutines over one cancelable context, as a train job mines its
// classes. Both searches meet at their 40th node: one cancels the
// context there while the other waits for the cancel. Both must return
// context.Canceled at their next node entry.
func TestCancelSharedContextStopsBothEnumerators(t *testing.T) {
	const after = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var timedOut atomic.Bool
	wait := func(ch <-chan struct{}) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
	}
	reached := make(chan struct{})
	visitors := []Visitor{
		&stepVisitor{after: after, at: func() { wait(reached); cancel() }},
		&stepVisitor{after: after, at: func() { close(reached); wait(ctx.Done()) }},
	}
	var (
		wg    sync.WaitGroup
		stats [2]Stats
		errs  [2]error
	)
	for i, v := range visitors {
		eng, items := synthEnumerator(v, 60, 30, 30)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = eng.Run(ctx, items)
		}()
	}
	wg.Wait()
	if timedOut.Load() {
		t.Fatal("the two searches never met at node 40")
	}
	for i, name := range []string{"cancelling search", "waiting search"} {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, errs[i])
		}
		// Each hook ran at node 40; node 41 is counted, then its
		// budget check stops the search.
		if stats[i].Nodes != after+1 || stats[i].Aborted {
			t.Errorf("%s: stats %+v, want %d nodes and no budget abort", name, stats[i], after+1)
		}
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
		delete(registry, "zz-test-a")
		delete(registry, "zz-test-b")
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

func TestRelativeMinsup(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.7, 10, 7},
		{0.7, 11, 8}, // 7.7 -> 8
		{0.5, 3, 2},  // 1.5 -> 2
		{1.0, 5, 5},
		{0.1, 1, 1}, // floor 0 -> at least 1
	}
	for _, c := range cases {
		if got := RelativeMinsup(c.frac, c.n); got != c.want {
			t.Errorf("RelativeMinsup(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}
