package hybrid

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

func randomDataset(r *rand.Rand) *dataset.Dataset {
	nRows := 3 + r.Intn(9)
	nItems := 2 + r.Intn(10)
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < nItems; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < nRows; row++ {
		var items []int
		for i := 0; i < nItems; i++ {
			if r.Intn(3) != 0 {
				items = append(items, i)
			}
		}
		d.Rows = append(d.Rows, items)
		d.Labels = append(d.Labels, dataset.Label(r.Intn(2)))
	}
	d.Labels[0] = 0
	return d
}

// assertSameLists compares per-row (confidence, support) sequences of
// hybrid and direct mining.
func assertSameLists(t *testing.T, d *dataset.Dataset, cls dataset.Label, minsup, k int, cfg Config) bool {
	t.Helper()
	direct, err := core.Mine(d, cls, core.DefaultConfig(minsup, k))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Mine(d, cls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range direct.PerRow {
		got := hyb.PerRow[r]
		if len(got) != len(want) {
			t.Logf("row %d: hybrid %d groups, direct %d", r, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i].Confidence != want[i].Confidence || got[i].Support != want[i].Support {
				t.Logf("row %d rank %d: hybrid (%v,%d), direct (%v,%d)",
					r, i, got[i].Confidence, got[i].Support, want[i].Confidence, want[i].Support)
				return false
			}
		}
	}
	return true
}

func TestFigure1Equivalence(t *testing.T) {
	d, _ := dataset.RunningExample()
	for cls := dataset.Label(0); cls <= 1; cls++ {
		for k := 1; k <= 3; k++ {
			if !assertSameLists(t, d, cls, 2, k, Config{K: k, Minsup: 2}) {
				t.Fatalf("class %d k %d: hybrid differs from direct mining", cls, k)
			}
		}
	}
}

func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(2)
		k := 1 + r.Intn(3)
		for cls := dataset.Label(0); cls <= 1; cls++ {
			if d.ClassCount(cls) == 0 {
				continue
			}
			if !assertSameLists(t, d, cls, minsup, k, Config{K: k, Minsup: minsup}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCapWithResidualPass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		cfg := Config{K: 2, Minsup: 1, MaxPartitionRows: 1 + r.Intn(4)}
		return assertSameLists(t, d, 0, 1, 2, cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManyRowsScenario(t *testing.T) {
	// The §8 motivation: a dataset with ten times the usual row count.
	// Hybrid mining must agree with direct mining while using bounded
	// partitions.
	r := rand.New(rand.NewSource(12345))
	nRows, nItems := 400, 30
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < nItems; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < nRows; row++ {
		label := dataset.Label(row % 2)
		var items []int
		for i := 0; i < nItems; i++ {
			p := 0.15 // background noise
			if int(label) == i%2 {
				p = 0.5 // class-correlated items
			}
			if r.Float64() < p {
				items = append(items, i)
			}
		}
		d.Rows = append(d.Rows, items)
		d.Labels = append(d.Labels, label)
	}
	minsup := 30
	direct, err := core.Mine(d, 0, core.DefaultConfig(minsup, 2))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Mine(d, 0, Config{K: 2, Minsup: minsup})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Partitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", hyb.Partitions)
	}
	for r0, want := range direct.PerRow {
		got := hyb.PerRow[r0]
		if len(got) != len(want) {
			t.Fatalf("row %d: %d vs %d groups", r0, len(got), len(want))
		}
		for i := range want {
			if got[i].Confidence != want[i].Confidence || got[i].Support != want[i].Support {
				t.Fatalf("row %d rank %d mismatch", r0, i)
			}
		}
	}
}

// TestMaxNodesCumulative pins the budget semantics: the cap applies to
// the node total across partitions, an exhausted budget yields a
// partial result with Stats.Aborted, and a generous budget changes
// nothing.
func TestMaxNodesCumulative(t *testing.T) {
	d, _ := dataset.RunningExample()

	full, err := Mine(d, 0, Config{K: 2, Minsup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Aborted {
		t.Fatal("unbounded run reported aborted")
	}
	if full.Stats.Nodes == 0 {
		t.Fatal("unbounded run reported zero nodes")
	}

	// A budget at least as large as the actual work is a no-op.
	capped, err := Mine(d, 0, Config{K: 2, Minsup: 2, MaxNodes: full.Stats.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats.Aborted {
		t.Fatalf("budget %d >= actual work %d must not abort", full.Stats.Nodes, capped.Stats.Nodes)
	}
	if capped.Stats.Nodes != full.Stats.Nodes || len(capped.Groups) != len(full.Groups) {
		t.Fatalf("exact budget changed the result: %d/%d nodes, %d/%d groups",
			capped.Stats.Nodes, full.Stats.Nodes, len(capped.Groups), len(full.Groups))
	}

	// A budget of one node cannot cover all partitions.
	aborted, err := Mine(d, 0, Config{K: 2, Minsup: 2, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !aborted.Stats.Aborted {
		t.Fatal("one-node budget did not abort")
	}
	if aborted.Stats.Nodes > full.Stats.Nodes {
		t.Fatalf("aborted run did more work (%d) than the full run (%d)",
			aborted.Stats.Nodes, full.Stats.Nodes)
	}

	// Cumulative progress snapshots must be monotone across partitions.
	var nodesSeen []int64
	_, err = Mine(d, 0, Config{K: 2, Minsup: 2, ProgressEvery: 1,
		Progress: func(p engine.ProgressSnapshot) { nodesSeen = append(nodesSeen, p.Nodes) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodesSeen) == 0 {
		t.Fatal("no progress snapshots")
	}
	for i := 1; i < len(nodesSeen); i++ {
		if nodesSeen[i] < nodesSeen[i-1] {
			t.Fatalf("snapshot nodes regressed: %v", nodesSeen)
		}
	}
	if got := nodesSeen[len(nodesSeen)-1]; got != int64(full.Stats.Nodes) {
		t.Fatalf("final snapshot nodes = %d, want %d", got, full.Stats.Nodes)
	}
}

// TestMinerForwardsBudget covers the engine adapter: opts.MaxNodes
// reaches the hybrid config and stats.Aborted reaches the caller.
func TestMinerForwardsBudget(t *testing.T) {
	d, _ := dataset.RunningExample()
	m, ok := engine.Lookup("hybrid")
	if !ok {
		t.Fatal("hybrid miner not registered")
	}
	_, stats, err := m.Mine(context.Background(), d, engine.Options{
		Class: 0, K: 2, Minsup: 2, MaxNodes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Aborted {
		t.Fatal("adapter dropped the abort flag")
	}
	_, stats, err = m.Mine(context.Background(), d, engine.Options{
		Class: 0, K: 2, Minsup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aborted || stats.Nodes == 0 {
		t.Fatalf("unbounded adapter run: aborted=%v nodes=%d", stats.Aborted, stats.Nodes)
	}
}

func TestValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Mine(d, 0, Config{K: 0, Minsup: 1}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Mine(d, 0, Config{K: 1, Minsup: 0}); err == nil {
		t.Fatal("minsup=0 must error")
	}
	if _, err := Mine(d, 9, Config{K: 1, Minsup: 1}); err == nil {
		t.Fatal("bad class must error")
	}
}
