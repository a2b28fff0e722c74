package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestProgressSnapshots checks the sampling contract on the kernel: snapshots arrive, node counts are non-decreasing, and the
// final snapshot reports the run's exact totals.
func TestProgressSnapshots(t *testing.T) {
	var snaps []ProgressSnapshot
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	eng.Progress = func(s ProgressSnapshot) { snaps = append(snaps, s) }
	eng.ProgressEvery = 64

	stats, err := eng.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots over %d nodes with stride 64, want several", len(snaps), stats.Nodes)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Nodes < snaps[i-1].Nodes {
			t.Fatalf("snapshot %d: nodes went backwards (%d -> %d)", i, snaps[i-1].Nodes, snaps[i].Nodes)
		}
		if snaps[i].Groups < snaps[i-1].Groups {
			t.Fatalf("snapshot %d: groups went backwards", i)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Nodes != int64(stats.Nodes) {
		t.Errorf("final snapshot nodes = %d, stats = %d", final.Nodes, stats.Nodes)
	}
	if final.Groups != int64(stats.Groups) {
		t.Errorf("final snapshot groups = %d, stats = %d", final.Groups, stats.Groups)
	}
	if final.MaxDepth != stats.MaxDepth {
		t.Errorf("final snapshot depth = %d, stats = %d", final.MaxDepth, stats.MaxDepth)
	}
	if final.BudgetRemaining != -1 {
		t.Errorf("unbounded run: BudgetRemaining = %d, want -1", final.BudgetRemaining)
	}
}

// TestProgressBudgetRemaining checks the countdown against MaxNodes.
func TestProgressBudgetRemaining(t *testing.T) {
	var snaps []ProgressSnapshot
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	eng.MaxNodes = 500
	eng.Progress = func(s ProgressSnapshot) { snaps = append(snaps, s) }
	eng.ProgressEvery = 64

	stats, err := eng.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Aborted {
		t.Fatalf("budget of 500 did not abort a %d-node tree", stats.Nodes)
	}
	for i, s := range snaps {
		if s.BudgetRemaining < 0 {
			t.Fatalf("snapshot %d: BudgetRemaining = %d on a bounded run", i, s.BudgetRemaining)
		}
		if want := int64(500) - s.Nodes; s.BudgetRemaining != want && s.BudgetRemaining != 0 {
			t.Fatalf("snapshot %d: remaining %d for %d nodes of 500", i, s.BudgetRemaining, s.Nodes)
		}
	}
}

// TestProgressParallel drives one sampler from four goroutines; run
// under -race this is the synchronization check. The sampler is safe
// for concurrent use, so emissions must never overlap, every stride
// must emit exactly once, and snapshots must stay monotone because
// ticks and emissions are serialized through the sampler.
func TestProgressParallel(t *testing.T) {
	const (
		goroutines = 4
		ticks      = 20000
		every      = 4
	)
	var inFlight, overlaps atomic.Int32
	var snaps []ProgressSnapshot
	budget := NewBudget(context.Background(), 0)
	p := &progressSampler{}
	p.arm(func(s ProgressSnapshot) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		snaps = append(snaps, s)
		runtime.Gosched() // widen the window for an overlapping emission
		inFlight.Add(-1)
	}, every, budget, nil)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < ticks; i++ {
				if err := budget.Charge(1); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					p.onGroup()
				}
				p.tick(i % 7)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d emissions overlapped another", n)
	}
	if want := goroutines * ticks / every; len(snaps) != want {
		t.Fatalf("got %d snapshots, want one per stride (%d)", len(snaps), want)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Nodes < snaps[i-1].Nodes || snaps[i].Groups < snaps[i-1].Groups {
			t.Fatalf("snapshot %d went backwards: %+v -> %+v", i, snaps[i-1], snaps[i])
		}
	}
	if last := snaps[len(snaps)-1]; last.MaxDepth > 6 || last.BudgetRemaining != -1 {
		t.Fatalf("final snapshot %+v: depth above any ticked depth or a bounded budget", last)
	}
}

// TestProgressSteadyStateAllocs extends the zero-allocation pin to runs
// WITH a progress hook: sampling must stay arena-free, and a hook that
// only stores the snapshot adds nothing either.
func TestProgressSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds in normal builds")
	}
	var last ProgressSnapshot
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	eng.Progress = func(s ProgressSnapshot) { last = s }
	eng.ProgressEvery = 64
	ctx := context.Background()
	if _, err := eng.Run(ctx, items); err != nil { // warm-up: arena + sampler
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(ctx, items); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run with progress hook: %.1f allocs, want exactly 0", allocs)
	}
	if last.Nodes == 0 {
		t.Error("hook never ran")
	}
}
