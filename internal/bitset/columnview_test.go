package bitset

import (
	"math/rand"
	"testing"
)

// buildView constructs a ColumnView over numItems materializing exactly
// the items in `used`, builds it from rows, and returns it.
func buildView(numItems int, used []int, rows []*Set) *ColumnView {
	v := NewColumnView(numItems, FromIndices(numItems, used...))
	v.Build(rows)
	return v
}

// readColumn reconstructs an item's column from the strided view words,
// the way MatchRows consumes them.
func readColumn(v *ColumnView, item int) *Set {
	col := New(v.Rows())
	base := int(v.ColumnBase(item))
	for r := 0; r < v.Rows(); r++ {
		w := v.words[base+(r/wordBits)*wordBits]
		if w&(1<<uint(r%wordBits)) != 0 {
			col.Add(r)
		}
	}
	return col
}

// naiveTranspose computes the item-major view column by column.
func naiveTranspose(numItems int, rows []*Set) []*Set {
	cols := make([]*Set, numItems)
	for i := range cols {
		cols[i] = New(len(rows))
		for r, row := range rows {
			if row.Contains(i) {
				cols[i].Add(r)
			}
		}
	}
	return cols
}

// TestColumnViewBuild: every materialized column must equal the naive
// per-item transpose, across universe/batch shapes straddling word and
// block boundaries — including partial final blocks whose padding rows
// must read as absent.
func TestColumnViewBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ numItems, numRows int }{
		{1, 1}, {64, 64}, {65, 63}, {190, 1}, {70, 130}, {128, 0},
		{300, 257}, {64, 200},
	} {
		rows := make([]*Set, tc.numRows)
		for r := range rows {
			rows[r] = New(tc.numItems)
			for k := 0; k < rng.Intn(tc.numItems+1); k++ {
				rows[r].Add(rng.Intn(tc.numItems))
			}
		}
		used := make([]int, 0, tc.numItems)
		for i := 0; i < tc.numItems; i += 1 + i%3 {
			used = append(used, i)
		}
		v := buildView(tc.numItems, used, rows)
		if v.Rows() != tc.numRows {
			t.Fatalf("items=%d rows=%d: Rows() = %d", tc.numItems, tc.numRows, v.Rows())
		}
		want := naiveTranspose(tc.numItems, rows)
		for _, i := range used {
			if got := readColumn(v, i); !got.Equal(want[i]) {
				t.Fatalf("items=%d rows=%d: col %d = %v, want %v",
					tc.numItems, tc.numRows, i, got, want[i])
			}
		}
	}
}

// TestColumnViewReuse: rebuilding one view with batches of shrinking and
// growing sizes must not leak rows between builds; bases must be
// re-derived after a Grow.
func TestColumnViewReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	numItems := 100
	used := []int{0, 17, 63, 64, 99}
	v := NewColumnView(numItems, FromIndices(numItems, used...))
	for _, n := range []int{70, 3, 0, 129, 64, 1} {
		rows := make([]*Set, n)
		for r := range rows {
			rows[r] = New(numItems)
			for k := 0; k < rng.Intn(6); k++ {
				rows[r].Add(rng.Intn(numItems))
			}
		}
		v.Build(rows)
		want := naiveTranspose(numItems, rows)
		for _, i := range used {
			if got := readColumn(v, i); !got.Equal(want[i]) {
				t.Fatalf("n=%d: col %d = %v, want %v", n, i, got, want[i])
			}
		}
	}
}

// TestColumnViewMatchRows pins the fused sweep against the naive
// composition — mask ∩ columns, union into acc, scatter-add — across
// antecedent sizes 0..4 (covering the specialized 1- and 2-base sweeps
// and the general loop).
func TestColumnViewMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numItems, numRows := 90, 150
	rows := make([]*Set, numRows)
	for r := range rows {
		rows[r] = New(numItems)
		for k := 0; k < rng.Intn(20); k++ {
			rows[r].Add(rng.Intn(numItems))
		}
	}
	used := make([]int, numItems)
	for i := range used {
		used[i] = i
	}
	v := buildView(numItems, used, rows)
	cols := naiveTranspose(numItems, rows)

	for trial := 0; trial < 60; trial++ {
		nAnt := trial % 5
		items := make([]int, 0, nAnt)
		bases := make([]int32, 0, nAnt)
		for len(items) < nAnt {
			it := rng.Intn(numItems)
			items = append(items, it)
			bases = append(bases, v.ColumnBase(it))
		}
		mask := New(numRows)
		for k := 0; k < rng.Intn(numRows); k++ {
			mask.Add(rng.Intn(numRows))
		}
		delta := float64(1+rng.Intn(8)) / 4

		wantMatch := mask.Clone()
		for _, it := range items {
			wantMatch.IntersectWith(cols[it])
		}
		acc := New(numRows)
		accWant := New(numRows)
		for k := 0; k < rng.Intn(10); k++ { // pre-seeded acc must be unioned into
			r := rng.Intn(numRows)
			acc.Add(r)
			accWant.Add(r)
		}
		accWant.UnionWith(wantMatch)

		vals := make([]float64, numRows)
		wantVals := make([]float64, numRows)
		for r := range vals {
			vals[r] = float64(rng.Intn(5))
			wantVals[r] = vals[r]
		}
		for _, r := range wantMatch.Indices() {
			wantVals[r] += delta
		}

		v.MatchRows(mask, bases, acc, vals, delta)
		if !acc.Equal(accWant) {
			t.Fatalf("trial %d (%d ants): acc = %v, want %v", trial, nAnt, acc, accWant)
		}
		for r := range vals {
			if vals[r] != wantVals[r] {
				t.Fatalf("trial %d (%d ants): vals[%d] = %v, want %v",
					trial, nAnt, r, vals[r], wantVals[r])
			}
		}
	}
}

// TestColumnViewAllocFree pins the steady state: once grown, Build and
// MatchRows perform zero heap allocations.
func TestColumnViewAllocFree(t *testing.T) {
	numItems := 130
	rows := make([]*Set, 100)
	for r := range rows {
		rows[r] = FromIndices(numItems, r%numItems, (r*11)%numItems)
	}
	v := NewColumnView(numItems, FromIndices(numItems, 3, 70, 129))
	v.Build(rows) // warm-up growth
	bases := []int32{v.ColumnBase(3), v.ColumnBase(70)}
	mask := New(100)
	mask.FillBelow(100)
	acc := New(100)
	vals := make([]float64, 100)
	if allocs := testing.AllocsPerRun(100, func() {
		v.Build(rows)
		v.MatchRows(mask, bases, acc, vals, 0.5)
	}); allocs != 0 {
		t.Errorf("Build+MatchRows steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestColumnViewPanics: contract violations must fail loudly, not
// corrupt the sweep.
func TestColumnViewPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := NewColumnView(100, FromIndices(100, 5))
	mustPanic("universe mismatch", func() { NewColumnView(100, FromIndices(90, 5)) })
	mustPanic("item out of range", func() { v.ColumnBase(100) })
	mustPanic("unmaterialized group", func() { v.ColumnBase(70) })
	mustPanic("row universe too small", func() { v.Build([]*Set{New(90)}) })
	v.Build([]*Set{FromIndices(100, 5)})
	mustPanic("short mask", func() {
		v.MatchRows(New(0), nil, New(64), make([]float64, 1), 1)
	})
}
