package carpenter

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/dataset"
)

func bruteForceClosed(d *dataset.Dataset, minsup int) []ClosedItemset {
	n := d.NumRows()
	seen := map[string]ClosedItemset{}
	for mask := 1; mask < 1<<n; mask++ {
		rows := bitset.New(n)
		for r := 0; r < n; r++ {
			if mask&(1<<r) != 0 {
				rows.Add(r)
			}
		}
		items := d.CommonItems(rows)
		if len(items) == 0 {
			continue
		}
		sup := d.SupportSet(items)
		if sup.Count() < minsup {
			continue
		}
		key := sup.Key()
		if _, ok := seen[key]; !ok {
			seen[key] = ClosedItemset{Items: items, Support: sup.Count()}
		}
	}
	var out []ClosedItemset
	for _, c := range seen {
		out = append(out, c)
	}
	// Same ordering as Mine.
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			a, b := out[i], out[j]
			if b.Support > a.Support || (b.Support == a.Support && less(b.Items, a.Items)) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func randomDataset(r *rand.Rand) *dataset.Dataset {
	nRows := 3 + r.Intn(7)
	nItems := 2 + r.Intn(9)
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
	return d
}

func TestFigure1AgainstBruteForce(t *testing.T) {
	d, _ := dataset.RunningExample()
	for minsup := 1; minsup <= 4; minsup++ {
		res, err := Mine(d, Config{Minsup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceClosed(d, minsup)
		if !reflect.DeepEqual(res.Closed, want) {
			t.Fatalf("minsup=%d:\ngot  %v\nwant %v", minsup, res.Closed, want)
		}
	}
}

func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(3)
		res, err := Mine(d, Config{Minsup: minsup})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(res.Closed, bruteForceClosed(d, minsup))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRowAndColumnEnumerationAgree(t *testing.T) {
	// CARPENTER (rows), CHARM (columns, diffsets) and CLOSET+ (pattern
	// growth) must produce identical closed collections.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		d := randomDataset(r)
		minsup := 1 + r.Intn(3)
		a, err := Mine(d, Config{Minsup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		b, err := charm.Mine(d, charm.Config{Minsup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		c, err := closet.Mine(d, closet.Config{Minsup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Closed) != len(b.Closed) || len(a.Closed) != len(c.Closed) {
			t.Fatalf("trial %d: counts differ: carpenter=%d charm=%d closet=%d",
				trial, len(a.Closed), len(b.Closed), len(c.Closed))
		}
		for i := range a.Closed {
			if !reflect.DeepEqual(a.Closed[i].Items, b.Closed[i].Items) ||
				a.Closed[i].Support != b.Closed[i].Support {
				t.Fatalf("trial %d: closed[%d] differs from charm", trial, i)
			}
			if !reflect.DeepEqual(a.Closed[i].Items, c.Closed[i].Items) {
				t.Fatalf("trial %d: closed[%d] differs from closet", trial, i)
			}
		}
	}
}

func TestValidationAndBudget(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Mine(d, Config{Minsup: 0}); err == nil {
		t.Fatal("minsup=0 must error")
	}
	res, err := Mine(d, Config{Minsup: 1, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("tiny budget should abort")
	}
	empty, err := Mine(d, Config{Minsup: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Closed) != 0 {
		t.Fatal("excessive minsup must yield nothing")
	}
}

func randomDense(r *rand.Rand, rows, items int) *dataset.Dataset {
	d := &dataset.Dataset{ClassNames: []string{"C"}}
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
		d.Labels = append(d.Labels, 0)
	}
	return d
}

func TestMineContextCancelled(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, d, Config{Minsup: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled mine must not return a result")
	}
}

func TestMaxNodesAborts(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	d := randomDense(r, 16, 20)
	res, err := Mine(d, Config{Minsup: 1, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("tiny budget must abort")
	}
}
