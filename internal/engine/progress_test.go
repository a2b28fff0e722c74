package engine

import (
	"context"
	"testing"
)

// TestProgressSnapshots checks the sampling contract on the kernel: snapshots arrive, node counts are non-decreasing, and the
// final snapshot reports the run's exact totals.
func TestProgressSnapshots(t *testing.T) {
	var snaps []ProgressSnapshot
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	eng.Progress = func(s ProgressSnapshot) { snaps = append(snaps, s) }

	stats, err := eng.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots over %d nodes, want several", len(snaps), stats.Nodes)
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

// TestProgressBudgetRemaining checks the countdown against a MaxNodes
// that lets the run cross more than one stride.
func TestProgressBudgetRemaining(t *testing.T) {
	const maxNodes = 2*DefaultProgressEvery + 500
	var snaps []ProgressSnapshot
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	eng.MaxNodes = maxNodes
	eng.Progress = func(s ProgressSnapshot) { snaps = append(snaps, s) }

	stats, err := eng.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Aborted {
		t.Fatalf("budget of %d did not abort a %d-node tree", maxNodes, stats.Nodes)
	}
	if len(snaps) != 3 || snaps[0].Nodes != DefaultProgressEvery || snaps[1].Nodes != 2*DefaultProgressEvery {
		t.Fatalf("snapshots %+v, want one at each of two strides and the final one", snaps)
	}
	for i, s := range snaps {
		if s.BudgetRemaining < 0 {
			t.Fatalf("snapshot %d: BudgetRemaining = %d on a bounded run", i, s.BudgetRemaining)
		}
		if want := int64(maxNodes) - s.Nodes; s.BudgetRemaining != want && s.BudgetRemaining != 0 {
			t.Fatalf("snapshot %d: remaining %d for %d nodes of %d", i, s.BudgetRemaining, s.Nodes, maxNodes)
		}
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
	ctx := context.Background()
	if _, err := eng.Run(ctx, items); err != nil { // warm-up: grows the arena
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
