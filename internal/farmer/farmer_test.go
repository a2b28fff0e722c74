package farmer

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// bruteForce enumerates all rule groups of class cls with support >=
// minsup and confidence >= minconf by closing every row subset.
func bruteForce(d *dataset.Dataset, cls dataset.Label, minsup int, minconf float64) []*rules.Group {
	n := d.NumRows()
	seen := map[string]*rules.Group{}
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
		key := sup.Key()
		if _, ok := seen[key]; ok {
			continue
		}
		xp := 0
		sup.ForEach(func(r int) bool {
			if d.Labels[r] == cls {
				xp++
			}
			return true
		})
		conf := float64(xp) / float64(sup.Count())
		if xp < minsup || conf < minconf {
			continue
		}
		seen[key] = &rules.Group{
			Antecedent: items, Class: cls, Support: xp, Confidence: conf, Rows: sup,
		}
	}
	var out []*rules.Group
	for _, g := range seen {
		out = append(out, g)
	}
	rules.SortGroups(out)
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
	d.Labels[0] = 0
	return d
}

// signature canonicalizes a group list for set comparison.
func signature(gs []*rules.Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Key()
	}
	sort.Strings(out)
	return out
}

func equalSignatures(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure1AllGroupsMinconfZero(t *testing.T) {
	// With minsup=1, minconf=0, class C, FARMER must find every closed
	// group with positive support.
	d, _ := dataset.RunningExample()
	want := bruteForce(d, 0, 1, 0)
	for _, eng := range []Engine{EngineBitset, EnginePrefix, EngineNaive} {
		res, err := Mine(d, 0, Config{Minsup: 1, Minconf: 0, Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !equalSignatures(signature(res.Groups), signature(want)) {
			t.Fatalf("%v: groups mismatch:\ngot %d %v\nwant %d %v",
				eng, len(res.Groups), signature(res.Groups), len(want), signature(want))
		}
	}
}

func TestFigure1ConfidenceThreshold(t *testing.T) {
	// minconf=1.0, minsup=2, class C: only abc -> C (conf 1.0, sup 2)
	// and ab -> C? ab has R={r1,r2} same group as abc. Only that group.
	d, idx := dataset.RunningExample()
	res, err := Mine(d, 0, Config{Minsup: 2, Minconf: 1.0, Engine: EngineBitset})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(res.Groups))
	}
	g := res.Groups[0]
	want := []int{idx["a"], idx["b"], idx["c"]}
	sort.Ints(want)
	if len(g.Antecedent) != 3 {
		t.Fatalf("antecedent = %v, want abc", g.Antecedent)
	}
	for i, it := range want {
		if g.Antecedent[i] != it {
			t.Fatalf("antecedent = %v, want %v", g.Antecedent, want)
		}
	}
}

func TestEnginesAgreeRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(2)
		minconf := float64(r.Intn(3)) / 4 // 0, 0.25, 0.5
		var sigs [][]string
		for _, eng := range []Engine{EngineBitset, EnginePrefix, EngineNaive} {
			res, err := Mine(d, 0, Config{Minsup: minsup, Minconf: minconf, Engine: eng})
			if err != nil {
				return false
			}
			sigs = append(sigs, signature(res.Groups))
		}
		return equalSignatures(sigs[0], sigs[1]) && equalSignatures(sigs[1], sigs[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAgainstOracleRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(2)
		minconf := float64(r.Intn(3)) / 4
		for cls := dataset.Label(0); cls <= 1; cls++ {
			if d.ClassCount(cls) == 0 {
				continue
			}
			res, err := Mine(d, cls, Config{Minsup: minsup, Minconf: minconf, Engine: EngineBitset})
			if err != nil {
				return false
			}
			want := bruteForce(d, cls, minsup, minconf)
			if !equalSignatures(signature(res.Groups), signature(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSupportAndConfidenceValues(t *testing.T) {
	// Every reported group's support/confidence must recompute from the
	// dataset exactly.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(r)
		res, err := Mine(d, 0, Config{Minsup: 1, Minconf: 0, Engine: EnginePrefix})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			sup := d.SupportSet(g.Antecedent)
			if !sup.Equal(g.Rows) {
				t.Fatalf("trial %d: Rows mismatch for %v", trial, g.Antecedent)
			}
			xp := 0
			sup.ForEach(func(row int) bool {
				if d.Labels[row] == 0 {
					xp++
				}
				return true
			})
			if g.Support != xp {
				t.Fatalf("trial %d: support %d, want %d", trial, g.Support, xp)
			}
			if g.Confidence != float64(xp)/float64(sup.Count()) {
				t.Fatalf("trial %d: confidence mismatch", trial)
			}
		}
	}
}

func TestConfidencePruningReducesNodes(t *testing.T) {
	d, _ := dataset.RunningExample()
	loose, err := Mine(d, 0, Config{Minsup: 1, Minconf: 0, Engine: EngineBitset})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Mine(d, 0, Config{Minsup: 1, Minconf: 1.0, Engine: EngineBitset})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.Nodes > loose.Stats.Nodes {
		t.Fatalf("minconf=1 visited more nodes (%d) than minconf=0 (%d)",
			tight.Stats.Nodes, loose.Stats.Nodes)
	}
}

func TestMaxNodesAborts(t *testing.T) {
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 0, Config{Minsup: 1, Minconf: 0, Engine: EngineNaive, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("tiny budget should abort")
	}
}

func TestInputValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Mine(d, 0, Config{Minsup: 0}); err == nil {
		t.Fatal("minsup=0 must error")
	}
	if _, err := Mine(d, 0, Config{Minsup: 1, Minconf: 2}); err == nil {
		t.Fatal("minconf>1 must error")
	}
	if _, err := Mine(d, 5, Config{Minsup: 1}); err == nil {
		t.Fatal("bad class must error")
	}
	if _, err := Mine(d, 0, Config{Minsup: 1, Engine: Engine(9)}); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestEngineString(t *testing.T) {
	if EngineBitset.String() != "bitset" || EnginePrefix.String() != "prefix" || EngineNaive.String() != "naive" {
		t.Fatal("engine names")
	}
	if Engine(9).String() == "" {
		t.Fatal("unknown engine should still render")
	}
}

func TestHighMinsupEmptyResult(t *testing.T) {
	d, _ := dataset.RunningExample()
	res, err := Mine(d, 0, Config{Minsup: 50, Engine: EngineBitset})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatal("excessive minsup must yield nothing")
	}
}

// bruteForceChi filters the oracle by the chi-square statistic.
func bruteForceChi(d *dataset.Dataset, cls dataset.Label, minsup int, minconf, minchi float64) []*rules.Group {
	all := bruteForce(d, cls, minsup, minconf)
	totalPos := d.ClassCount(cls)
	totalNeg := d.NumRows() - totalPos
	var out []*rules.Group
	for _, g := range all {
		xp := g.Support
		xn := g.Rows.Count() - xp
		a, b := float64(xp), float64(xn)
		c, dd := float64(totalPos-xp), float64(totalNeg-xn)
		n := a + b + c + dd
		den := (a + b) * (c + dd) * (a + c) * (b + dd)
		chi := 0.0
		if den > 0 {
			diff := a*dd - b*c
			chi = n * diff * diff / den
		}
		if chi >= minchi {
			out = append(out, g)
		}
	}
	return out
}

func TestMinChiAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(2)
		minchi := float64(r.Intn(4)) // 0..3
		for _, eng := range []Engine{EngineBitset, EnginePrefix, EngineNaive} {
			res, err := Mine(d, 0, Config{Minsup: minsup, MinChi: minchi, Engine: eng})
			if err != nil {
				return false
			}
			want := bruteForceChi(d, 0, minsup, 0, minchi)
			if !equalSignatures(signature(res.Groups), signature(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinChiValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Mine(d, 0, Config{Minsup: 1, MinChi: -1}); err == nil {
		t.Fatal("negative minchi must error")
	}
}

// randomDense builds a dataset with plenty of closed structure: ~2/3
// density and alternating labels.
func randomDense(r *rand.Rand, rows, items int) *dataset.Dataset {
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

func TestMineContextCancelledAllEngines(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{EngineBitset, EnginePrefix, EngineNaive} {
		cfg := Config{Minsup: 1, Engine: eng}
		res, err := MineContext(ctx, d, 0, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %s: err = %v, want context.Canceled", eng, err)
		}
		if res != nil {
			t.Fatalf("engine %s: cancelled mine must not return a result", eng)
		}
	}
}

func TestMaxNodesAbortsAllEngines(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	d := randomDense(r, 16, 20)
	for _, eng := range []Engine{EngineBitset, EnginePrefix, EngineNaive} {
		cfg := Config{Minsup: 1, Engine: eng, MaxNodes: 5}
		res, err := Mine(d, 0, cfg)
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if !res.Aborted || !res.Stats.Aborted {
			t.Fatalf("engine %s: tiny budget must abort (Aborted=%v Stats.Aborted=%v)", eng, res.Aborted, res.Stats.Aborted)
		}
	}
}
