package dataset

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestRunningExampleShape(t *testing.T) {
	d, idx := RunningExample()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 || d.NumItems() != 10 || d.NumClasses() != 2 {
		t.Fatalf("shape = (%d rows, %d items, %d classes)", d.NumRows(), d.NumItems(), d.NumClasses())
	}
	if d.ClassCount(0) != 3 || d.ClassCount(1) != 2 {
		t.Fatalf("class counts = (%d, %d), want (3, 2)", d.ClassCount(0), d.ClassCount(1))
	}
	if len(idx) != 10 {
		t.Fatalf("item index has %d entries", len(idx))
	}
}

func TestItemSupportSetsMatchFigure1b(t *testing.T) {
	d, idx := RunningExample()
	// Expected R(i) per Figure 1(b), rows 0-indexed.
	want := map[string][]int{
		"a": {0, 1}, "b": {0, 1}, "c": {0, 1, 2, 3}, "d": {0, 2, 3},
		"e": {0, 2, 3, 4}, "f": {2, 3, 4}, "g": {2, 3, 4}, "h": {4},
		"o": {1, 4}, "p": {1},
	}
	for name, rows := range want {
		got := d.ItemRows(idx[name]).Indices()
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("R(%s) = %v, want %v", name, got, rows)
		}
	}
}

// TestItemRowsConcurrentFirstUse has several goroutines make the first
// ItemRows calls on one dataset at once, as concurrent jobs sharing a
// dataset do; under -race the lazy index build must not race, and
// every goroutine must see the same sets.
func TestItemRowsConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	ref, _ := RunningExample()
	want := make([][]int, ref.NumItems())
	for i := range want {
		want[i] = ref.ItemRows(i).Indices()
	}

	d, _ := RunningExample()
	got := make([][][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sets := make([][]int, d.NumItems())
			for i := range sets {
				sets[i] = d.ItemRows(i).Indices()
			}
			got[g] = sets
		}(g)
	}
	wg.Wait()
	for g, sets := range got {
		if !reflect.DeepEqual(sets, want) {
			t.Fatalf("goroutine %d saw item sets %v, want %v", g, sets, want)
		}
	}
}

func TestSupportSetExample21(t *testing.T) {
	d, idx := RunningExample()
	// Example 2.1: R({c,d,e}) = {r1, r3, r4} (0-indexed: 0, 2, 3).
	got := d.SupportSet([]int{idx["c"], idx["d"], idx["e"]}).Indices()
	if !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("R(cde) = %v, want [0 2 3]", got)
	}
	// Empty itemset supports every row.
	if got := d.SupportSet(nil).Count(); got != 5 {
		t.Fatalf("R(∅) has %d rows, want 5", got)
	}
}

func TestCommonItemsExample21(t *testing.T) {
	d, idx := RunningExample()
	// Example 2.1: I({r1, r3}) = {c, d, e}.
	rows := d.RowSet(0)
	rows.Clear()
	rows.Add(0)
	rows.Add(2)
	got := d.CommonItems(rows)
	want := []int{idx["c"], idx["d"], idx["e"]}
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("I({r1,r3}) = %v, want %v", got, want)
	}
}

func TestRowSetAndRowItemSet(t *testing.T) {
	d, idx := RunningExample()
	if got := d.RowSet(0).Indices(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("RowSet(C) = %v", got)
	}
	if got := d.RowSet(1).Indices(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("RowSet(notC) = %v", got)
	}
	r5 := d.RowItemSet(4)
	for _, n := range []string{"e", "f", "g", "h", "o"} {
		if !r5.Contains(idx[n]) {
			t.Errorf("row 5 should contain %s", n)
		}
	}
	if r5.Count() != 5 {
		t.Fatalf("row 5 has %d items, want 5", r5.Count())
	}
}

func TestSubsetAndReorder(t *testing.T) {
	d, _ := RunningExample()
	sub := d.Subset([]int{4, 0})
	if sub.NumRows() != 2 {
		t.Fatalf("subset rows = %d", sub.NumRows())
	}
	if sub.Labels[0] != 1 || sub.Labels[1] != 0 {
		t.Fatalf("subset labels = %v", sub.Labels)
	}
	if !reflect.DeepEqual(sub.Rows[1], d.Rows[0]) {
		t.Fatal("subset row content mismatch")
	}
	re := d.Reorder([]int{4, 3, 2, 1, 0})
	if !reflect.DeepEqual(re.Rows[0], d.Rows[4]) {
		t.Fatal("reorder row content mismatch")
	}
	// Mutating the subset must not affect the original.
	sub.Rows[0][0] = 999
	if d.Rows[4][0] == 999 {
		t.Fatal("Subset must copy row slices")
	}
}

func TestReorderBadPermPanics(t *testing.T) {
	d, _ := RunningExample()
	defer func() {
		if recover() == nil {
			t.Fatal("Reorder with wrong length should panic")
		}
	}()
	d.Reorder([]int{0, 1})
}

func TestFilterItems(t *testing.T) {
	d, idx := RunningExample()
	// Keep only items with support >= 3: c, d, e, f, g.
	nd, newToOld := d.FilterItems(func(i int) bool { return d.ItemSupport(i) >= 3 })
	if nd.NumItems() != 5 {
		t.Fatalf("filtered items = %d, want 5", nd.NumItems())
	}
	wantOld := []int{idx["c"], idx["d"], idx["e"], idx["f"], idx["g"]}
	if !reflect.DeepEqual(newToOld, wantOld) {
		t.Fatalf("newToOld = %v, want %v", newToOld, wantOld)
	}
	// Row 2 (r2) had a,b,c,o,p -> only c survives.
	if len(nd.Rows[1]) != 1 || nd.Items[nd.Rows[1][0]].GeneName != "c" {
		t.Fatalf("filtered r2 = %v", nd.Rows[1])
	}
	if err := nd.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestItemMatchesAndString(t *testing.T) {
	it := Item{Gene: 0, GeneName: "X95735_at", Lo: math.Inf(-1), Hi: 994}
	if !it.Matches(-1e9) || !it.Matches(993.9) {
		t.Fatal("values below Hi should match")
	}
	if it.Matches(994) {
		t.Fatal("Hi is exclusive")
	}
	if got := it.String(); got != "X95735_at[-inf,994)" {
		t.Fatalf("String() = %q", got)
	}
	it2 := Item{GeneName: "g", Lo: 1, Hi: math.Inf(1)}
	if got := it2.String(); got != "g[1,+inf)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
	}{
		{"label count mismatch", &Dataset{
			Items:      []Item{{}},
			Rows:       [][]int{{0}},
			Labels:     nil,
			ClassNames: []string{"a", "b"},
		}},
		{"unsorted row", &Dataset{
			Items:      []Item{{}, {}},
			Rows:       [][]int{{1, 0}},
			Labels:     []Label{0},
			ClassNames: []string{"a", "b"},
		}},
		{"duplicate item in row", &Dataset{
			Items:      []Item{{}, {}},
			Rows:       [][]int{{0, 0}},
			Labels:     []Label{0},
			ClassNames: []string{"a", "b"},
		}},
		{"item id out of range", &Dataset{
			Items:      []Item{{}},
			Rows:       [][]int{{5}},
			Labels:     []Label{0},
			ClassNames: []string{"a", "b"},
		}},
		{"label out of range", &Dataset{
			Items:      []Item{{}},
			Rows:       [][]int{{0}},
			Labels:     []Label{7},
			ClassNames: []string{"a", "b"},
		}},
		{"single class", &Dataset{
			Items:      []Item{{}},
			Rows:       [][]int{{0}},
			Labels:     []Label{0},
			ClassNames: []string{"only"},
		}},
	}
	for _, c := range cases {
		if err := c.d.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted malformed dataset", c.name)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := &Matrix{
		GeneNames:  []string{"g0", "g1", "g2"},
		Values:     [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Labels:     []Label{0, 1, 0},
		ClassNames: []string{"pos", "neg"},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 3 || m.NumGenes() != 3 {
		t.Fatalf("shape = (%d, %d)", m.NumRows(), m.NumGenes())
	}
	if m.ClassCount(0) != 2 {
		t.Fatalf("ClassCount(0) = %d", m.ClassCount(0))
	}
	if got := m.Column(1); !reflect.DeepEqual(got, []float64{2, 5, 8}) {
		t.Fatalf("Column(1) = %v", got)
	}
	sel := m.SelectGenes([]int{2, 0})
	if !reflect.DeepEqual(sel.GeneNames, []string{"g2", "g0"}) {
		t.Fatalf("SelectGenes names = %v", sel.GeneNames)
	}
	if !reflect.DeepEqual(sel.Values[1], []float64{6, 4}) {
		t.Fatalf("SelectGenes row 1 = %v", sel.Values[1])
	}
	// Mutating the selection must not touch the original.
	sel.Values[0][0] = -1
	if m.Values[0][2] == -1 {
		t.Fatal("SelectGenes must copy values")
	}
}

func TestMatrixValidateRejects(t *testing.T) {
	bad := []*Matrix{
		{GeneNames: []string{"g"}, Values: [][]float64{{1, 2}}, Labels: []Label{0}, ClassNames: []string{"a", "b"}},
		{GeneNames: []string{"g"}, Values: [][]float64{{math.NaN()}}, Labels: []Label{0}, ClassNames: []string{"a", "b"}},
		{GeneNames: []string{"g"}, Values: [][]float64{{1}}, Labels: []Label{5}, ClassNames: []string{"a", "b"}},
		{GeneNames: []string{"g"}, Values: [][]float64{{1}}, Labels: []Label{0}, ClassNames: []string{"a"}},
		{GeneNames: []string{"g"}, Values: [][]float64{{1}, {2}}, Labels: []Label{0}, ClassNames: []string{"a", "b"}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted malformed matrix", i)
		}
	}
}
