package lowerbound

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/rules"
	"repro/internal/synth"
)

// Find must return exactly what referenceFind returns, rule for rule
// and in order: the candidate order and the budget count decide which
// lower bounds a trained classifier holds, so any drift changes
// models. The tests below compare the two on random tables, on every
// rule group of a PC/3-shaped dataset and on fuzz input, and pin the
// allocation and memory bounds that motivated the rewrite.

// pcData is a PC-shaped dataset, every rule group RCBT training mines
// from it (k = 10, minsup = ⌈0.7 · class size⌉) and its item scores.
type pcData struct {
	d      *dataset.Dataset
	groups []*rules.Group
	scores []float64
}

// loadPC builds PC/3 (102 rows × 4200 genes, the train-wide benchmark
// shape, where FindLB dominates training) and loadPC2 builds PC/2
// (6300 genes), where 11 of 22 searches stop at the default budget.
var (
	loadPC  = sync.OnceValues(func() (*pcData, error) { return pcAt(3) })
	loadPC2 = sync.OnceValues(func() (*pcData, error) { return pcAt(2) })
)

// pcAt builds the pcData of the PC profile scaled down by scale.
func pcAt(scale int) (*pcData, error) {
	train, _, err := synth.Generate(synth.Scaled(synth.PC(), scale))
	if err != nil {
		return nil, err
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		return nil, err
	}
	d, err := dz.Transform(train)
	if err != nil {
		return nil, err
	}
	pc := &pcData{d: d, scores: DefaultItemScores(d)}
	for cls := 0; cls < d.NumClasses(); cls++ {
		minsup := engine.RelativeMinsup(0.7, d.ClassCount(dataset.Label(cls)))
		res, err := core.Mine(d, dataset.Label(cls), core.DefaultConfig(minsup, 10))
		if err != nil {
			return nil, err
		}
		pc.groups = append(pc.groups, res.Groups...)
	}
	return pc, nil
}

func pcGroups(t *testing.T) *pcData {
	t.Helper()
	return mustLoad(t, loadPC, "PC/3")
}

func mustLoad(t *testing.T, load func() (*pcData, error), name string) *pcData {
	t.Helper()
	pc, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.groups) == 0 {
		t.Fatalf("%s yields no rule groups", name)
	}
	return pc
}

// TestDefaultBudget pins the budget a zero Config runs, which every
// trainer runs: on PC/2 it returns exactly what a budget of 2^18
// returns, and a budget of 2^20 finds more lower bounds for some group,
// so the budget decides what a trained model holds.
func TestDefaultBudget(t *testing.T) {
	pc := mustLoad(t, loadPC2, "PC/2")
	cut := 0
	for i, g := range pc.groups {
		got := Find(pc.d, g, Config{NL: 20, ItemScore: pc.scores})
		want := Find(pc.d, g, Config{NL: 20, MaxCandidates: 1 << 18, ItemScore: pc.scores})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PC/2 group %d: the default budget finds %d rules, a budget of 2^18 %d", i, len(got), len(want))
		}
		// The 2^20 searches take seconds under -race.
		if !raceEnabled && len(Find(pc.d, g, Config{NL: 20, MaxCandidates: 1 << 20, ItemScore: pc.scores})) > len(got) {
			cut++
		}
	}
	if !raceEnabled && cut == 0 {
		t.Fatalf("no PC/2 group finds more lower bounds at a budget of 2^20 than at the default; the test no longer tells the budgets apart")
	}
}

// costliest returns the PC/3 group whose NL=20 search examines the
// most candidates: the one that finds the fewest lower bounds within
// 10^5 candidates. It checks that this search examines more than 10^5
// at the default budget, because it finds more lower bounds there.
func costliest(t *testing.T, pc *pcData) *rules.Group {
	t.Helper()
	cfg := Config{NL: 20, MaxCandidates: 1e5, ItemScore: pc.scores}
	var best *rules.Group
	cut := 0
	for _, g := range pc.groups {
		if n := len(Find(pc.d, g, cfg)); best == nil || n < cut {
			best, cut = g, n
		}
	}
	cfg.MaxCandidates = 0
	if full := len(Find(pc.d, best, cfg)); cut >= full {
		t.Fatalf("costliest group finds %d lower bounds within 10^5 candidates and %d at the default budget; no search examines 10^5 any more", cut, full)
	}
	return best
}

// checkOracle fails the test unless referenceFind, Find and a search on
// the reused scratch s agree on (d, g, cfg). Reusing s across tables
// and groups of every shape checks that no state leaks from one search
// into the next, as it would between the groups of one FindAll worker.
func checkOracle(t *testing.T, s *search, name string, d *dataset.Dataset, g *rules.Group, cfg Config) {
	t.Helper()
	want := referenceFind(d, g, cfg)
	for _, got := range [][]*rules.Rule{Find(d, g, cfg), s.find(d, g, cfg, nil)} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (NL=%d MaxCandidates=%d, |A|=%d, |R|=%d of %d rows): got %d rules, referenceFind %d\n got: %s\nwant: %s",
				name, cfg.NL, cfg.MaxCandidates, len(g.Antecedent), g.Rows.Count(), d.NumRows(),
				len(got), len(want), renderRules(got), renderRules(want))
		}
	}
}

func renderRules(rs []*rules.Rule) string {
	if len(rs) > 8 {
		return fmt.Sprintf("%s ... (%d more)", renderRules(rs[:8]), len(rs)-8)
	}
	out := ""
	for _, r := range rs {
		out += fmt.Sprintf("%v ", r.Antecedent)
	}
	return out
}

// denseTable draws a two-class table whose cells are present with the
// given probability. Dense rows close to long upper bounds with many
// outside rows, which is where the search has levels worth cutting.
func denseTable(r *rand.Rand, rows, items int, density float64) *dataset.Dataset {
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < items; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < rows; row++ {
		var its []int
		for i := 0; i < items; i++ {
			if r.Float64() < density {
				its = append(its, i)
			}
		}
		d.Rows = append(d.Rows, its)
		d.Labels = append(d.Labels, dataset.Label(r.Intn(2)))
	}
	return d
}

func TestFindOracleMatchesReference(t *testing.T) {
	var s search
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 1000; trial++ {
		d := denseTable(r, 4+r.Intn(37), 3+r.Intn(22), 0.5+0.45*r.Float64())
		row := r.Intn(d.NumRows())
		g := groupFor(d, d.Rows[row], d.Labels[row])
		cfg := Config{NL: 1 + r.Intn(40)}
		if r.Intn(4) == 0 {
			cfg.NL = 1 << 20
		}
		// A budget of a few thousand candidates stops the larger tables
		// part-way through a level; small tables also run unbudgeted,
		// where the search ends by exhaustion.
		if len(g.Antecedent) > 14 || r.Intn(2) == 0 {
			cfg.MaxCandidates = 1 + r.Intn(4000)
		}
		checkOracle(t, &s, fmt.Sprintf("trial %d", trial), d, g, cfg)
	}

	// Every rule group of a PC/3-shaped dataset. The first two configs
	// cut most groups' searches mid-level. The reference at the default
	// budget takes seconds under -race, so RCBT's default, NL=20 at the
	// default budget, and a run to a budget of 2·10^4 join only without
	// it.
	pc := pcGroups(t)
	cfgs := []Config{{NL: 50, MaxCandidates: 5000}, {NL: 20, MaxCandidates: 1000}}
	if !raceEnabled {
		cfgs = append(cfgs, Config{NL: 20}, Config{NL: 1 << 20, MaxCandidates: 20000})
	}
	for _, cfg := range cfgs {
		cfg.ItemScore = pc.scores
		for i, g := range pc.groups {
			checkOracle(t, &s, fmt.Sprintf("PC/3 group %d", i), pc.d, g, cfg)
		}
	}
}

// FuzzFind compares Find with referenceFind on a table, group and
// config decoded from the fuzz input: an 8-byte header (byte 3 unused),
// then the table's cells row by row, one bit each, cycling through the
// payload.
func FuzzFind(f *testing.F) {
	f.Add([]byte{20, 12, 5, 0, 0, 0, 0xa5, 3, 0xff, 0x7f, 0xbf, 0xdf, 0xef, 0xf7, 0xfb, 0xfd})
	f.Add([]byte{30, 15, 19, 3, 8, 200, 0x3c, 17, 0xee, 0xdd, 0xbb, 0x77})
	f.Add([]byte{9, 6, 255, 0, 1, 7, 0x0f, 0, 0xff, 0xf0})
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0, 1})
	var s search // reused across inputs, as across one FindAll worker's groups
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		rows, items := 2+int(data[0])%31, 1+int(data[1])%16
		cfg := Config{
			NL:            1 + int(data[2])%32,
			MaxCandidates: (int(data[4])<<8 | int(data[5])) % 5000,
		}
		if data[2] == 255 {
			cfg.NL = 1 << 20
		}
		payload := data[8:]
		d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
		for i := 0; i < items; i++ {
			d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
		}
		bit := 0
		for row := 0; row < rows; row++ {
			var its []int
			for i := 0; i < items; i++ {
				if len(payload) == 0 || payload[bit/8%len(payload)]>>(bit%8)&1 == 1 {
					its = append(its, i)
				}
				bit++
			}
			d.Rows = append(d.Rows, its)
			d.Labels = append(d.Labels, dataset.Label(data[6]>>(row%8)&1))
		}
		row := int(data[7]) % rows
		checkOracle(t, &s, "fuzz", d, groupFor(d, d.Rows[row], d.Labels[row]), cfg)
	})
}

// TestFindAllocsBounded pins Find on the costliest PC/3 group at
// RCBT's NL=20 under 1 000 allocations. The search it replaced
// allocated an index slice and a bitset per candidate, about 1.1 M.
func TestFindAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds in normal builds")
	}
	pc := pcGroups(t)
	g := costliest(t, pc)
	cfg := Config{NL: 20, ItemScore: pc.scores}
	if allocs := testing.AllocsPerRun(3, func() { Find(pc.d, g, cfg) }); allocs >= 1000 {
		t.Errorf("Find on the costliest PC/3 group: %.0f allocs, want < 1000", allocs)
	}
}

// TestFindMemoryLinearInBudget bounds the bytes one Find allocates by
// a constant plus bytesPerCandidate per candidate of MaxCandidates. The
// search stores only candidates it examined, so the bound holds however
// large the next level would be; building whole levels took 985-1 649
// bytes per candidate on this group.
func TestFindMemoryLinearInBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the bound only holds in normal builds")
	}
	const (
		fixed             = 64 << 10
		bytesPerCandidate = 320
	)
	pc := pcGroups(t)
	g := costliest(t, pc)
	for _, budget := range []int{1e3, 1e4, 1e5} {
		cfg := Config{NL: 20, MaxCandidates: budget, ItemScore: pc.scores}
		// Take the least of a few runs, so another goroutine's
		// allocation cannot fail the bound.
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Find(pc.d, g, cfg)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(fixed + bytesPerCandidate*budget); least > limit {
			t.Errorf("MaxCandidates %d: Find allocated %d bytes (%.0f per candidate), want <= %d",
				budget, least, float64(least)/float64(budget), limit)
		}
	}
}
