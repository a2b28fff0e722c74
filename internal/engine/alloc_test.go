package engine

import (
	"context"
	"testing"

	"repro/internal/bitset"
)

// minsupVisitor is the minimal non-retaining visitor: support-only
// pruning, no copies of any hook argument. It is what the allocation
// regression tests and the kernel benchmarks run, so every allocation
// they observe is the engine's own.
type minsupVisitor struct {
	minsup int
	groups int
}

func (v *minsupVisitor) UpdateThresholds(xPos, candPos []int) Threshold { return Threshold{} }
func (v *minsupVisitor) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool {
	return xp+rp < v.minsup
}
func (v *minsupVisitor) PruneAfterScan(_ Threshold, xp, xn, mp, rn int) bool {
	return xp+mp < v.minsup
}
func (v *minsupVisitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	v.groups++
}

// synthItemRows builds a deterministic dataset-shaped item index: item
// it contains row r iff a fixed multiplicative hash of (r, it) clears a
// density threshold. No RNG state, so every test and benchmark run
// enumerates the identical tree.
func synthItemRows(numRows, numItems, densityPct int) []*bitset.Set {
	itemRows := make([]*bitset.Set, numItems)
	for it := range itemRows {
		s := bitset.New(numRows)
		for r := 0; r < numRows; r++ {
			h := uint32(r*2654435761) ^ uint32(it*40503+0x9e37)
			h ^= h >> 13
			h *= 2654435761
			if int(h%100) < densityPct {
				s.Add(r)
			}
		}
		itemRows[it] = s
	}
	return itemRows
}

func synthEnumerator(v Visitor, numRows, numPos, numItems int) (*Enumerator, []int) {
	items := make([]int, numItems)
	for i := range items {
		items[i] = i
	}
	return &Enumerator{
		NumRows:  numRows,
		NumPos:   numPos,
		ItemRows: synthItemRows(numRows, numItems, 40),
		Visitor:  v,
	}, items
}

// TestKernelSteadyStateAllocs pins the hot loop at exactly
// zero heap allocations per Run once the arena is warm: the first Run
// builds the scratch levels and the row→item index, every later Run
// reuses them.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds in normal builds")
	}
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 40, 20, 24)
	ctx := context.Background()
	if _, err := eng.Run(ctx, items); err != nil { // warm-up: grows the arena
		t.Fatal(err)
	}
	if eng.stats.Nodes < 100 {
		t.Fatalf("synthetic tree too small to be meaningful: %d nodes", eng.stats.Nodes)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(ctx, items); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run: %.1f allocs, want exactly 0", allocs)
	}
}

// BenchmarkMineKernel measures raw enumeration throughput of the
// kernel on the synthetic tree, reporting nodes/sec.
func BenchmarkMineKernel(b *testing.B) {
	v := &minsupVisitor{minsup: 2}
	eng, items := synthEnumerator(v, 60, 30, 30)
	ctx := context.Background()
	if _, err := eng.Run(ctx, items); err != nil {
		b.Fatal(err)
	}
	nodesPerRun := eng.stats.Nodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nodesPerRun)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
}
