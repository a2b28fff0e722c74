package rcbt

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/rules"
	"repro/internal/synth"
)

func TestTrainOnRunningExample(t *testing.T) {
	d, _ := dataset.RunningExample()
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.NL = 5
	cfg.MinsupFrac = 0.5
	c, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClassifiers() < 1 {
		t.Fatal("want at least the main classifier")
	}
	preds, stats := c.PredictDataset(d)
	correct := 0
	for r, p := range preds {
		if p == d.Labels[r] {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("training accuracy %d/5 too low", correct)
	}
	total := stats.Defaults
	for _, n := range stats.ByClassifier {
		total += n
	}
	if total != d.NumRows() {
		t.Fatalf("stats account for %d rows, want %d", total, d.NumRows())
	}
}

func TestValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Train(d, Config{K: -1, NL: 1, MinsupFrac: 0.5}); err == nil {
		t.Fatal("K<0 must error")
	}
	if _, err := Train(d, Config{K: 1, NL: -1, MinsupFrac: 0.5}); err == nil {
		t.Fatal("NL<0 must error")
	}
	if _, err := Train(d, Config{K: 1, NL: 1, MinsupFrac: 1.5}); err == nil {
		t.Fatal("MinsupFrac>1 must error")
	}
	if _, err := Train(d, Config{K: 1, NL: 1, MinsupFrac: -0.5}); err == nil {
		t.Fatal("MinsupFrac<0 must error")
	}
	if err := (Config{Workers: -1}).Validate(); err == nil {
		t.Fatal("Workers<0 must error")
	}
	if err := (Config{MaxNodes: -1}).Validate(); err == nil {
		t.Fatal("MaxNodes<0 must error")
	}
	if err := (Config{Timeout: -time.Second}).Validate(); err == nil {
		t.Fatal("Timeout<0 must error")
	}
}

func TestZeroConfigIsDefault(t *testing.T) {
	// The zero Config must behave exactly like DefaultConfig.
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	got, want := Config{}.withDefaults(), DefaultConfig()
	if got.K != want.K || got.NL != want.NL || got.MinsupFrac != want.MinsupFrac {
		t.Fatalf("zero-config defaults %+v != DefaultConfig %+v", got, want)
	}
	d, _ := dataset.RunningExample()
	// Training the 5-row example with the full paper defaults must work.
	if _, err := Train(d, Config{}); err != nil {
		t.Fatalf("Train with zero config: %v", err)
	}
}

func TestTrainContextCancellation(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := TrainContext(ctx, d, Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c != nil {
		t.Fatal("cancelled training must not return a classifier")
	}
}

func TestTrainContextTimeout(t *testing.T) {
	// An already-expired composed deadline must abort with
	// context.DeadlineExceeded through the cfg.Timeout path.
	d, _ := dataset.RunningExample()
	_, err := TrainContext(context.Background(), d,
		Config{K: 2, NL: 3, MinsupFrac: 0.5, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestScoreFormula(t *testing.T) {
	// S(γ) = conf · sup / d_c, in [0, 1].
	c, _ := Train(func() *dataset.Dataset { d, _ := dataset.RunningExample(); return d }(),
		Config{K: 1, NL: 1, MinsupFrac: 0.5})
	for _, sub := range c.subs {
		for _, r := range sub.rules {
			s := score(r, c.classCount)
			if s < 0 || s > 1 {
				t.Fatalf("score %v outside [0,1]", s)
			}
		}
	}
}

func TestStandbyClassifierUsed(t *testing.T) {
	// Craft a test row covered only by the standby classifier's rules.
	// Training: class C rows share items {0,1}; class notC rows share
	// {2,3}. A test row containing only item 1 should miss main rules
	// built on higher-ranked groups if those use item 0... since rule
	// selection is data dependent, just verify the plumbing: predictions
	// from all classifiers are consistent and stats sum correctly.
	d := &dataset.Dataset{
		Items: []dataset.Item{
			{GeneName: "a"}, {GeneName: "b"}, {GeneName: "c"}, {GeneName: "d"},
		},
		Rows: [][]int{
			{0, 1}, {0, 1}, {0, 1},
			{2, 3}, {2, 3}, {2, 3},
		},
		Labels:     []dataset.Label{0, 0, 0, 1, 1, 1},
		ClassNames: []string{"C", "notC"},
	}
	c, err := Train(d, Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly matching row classifies without default.
	lab, idx := c.Predict(bitset.FromIndices(4, 0, 1))
	if lab != 0 || idx < 0 {
		t.Fatalf("row {0,1}: got (%v, %d)", lab, idx)
	}
	lab, idx = c.Predict(bitset.FromIndices(4, 2, 3))
	if lab != 1 || idx < 0 {
		t.Fatalf("row {2,3}: got (%v, %d)", lab, idx)
	}
	// An empty row falls to the default class.
	_, idx = c.Predict(bitset.New(4))
	if idx != -1 {
		t.Fatal("empty row should use the default class")
	}
}

func TestVotingAggregation(t *testing.T) {
	// A row matching rules of both classes goes to the higher normalized
	// score. Class C has a high-support perfect rule; notC a weak one.
	d := &dataset.Dataset{
		Items: []dataset.Item{{GeneName: "a"}, {GeneName: "b"}},
		Rows: [][]int{
			{0}, {0}, {0}, {0},
			{1}, {1},
		},
		Labels:     []dataset.Label{0, 0, 0, 0, 1, 1},
		ClassNames: []string{"C", "notC"},
	}
	c, err := Train(d, Config{K: 1, NL: 2, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Row with both items: matches a -> C (sup 4/4) and b -> notC (sup
	// 2/2). Normalized scores tie at 1.0 each when each class has one
	// rule; prediction must still be deterministic (first max wins).
	lab, idx := c.Predict(bitset.FromIndices(2, 0, 1))
	if idx < 0 {
		t.Fatal("should be decided by a classifier, not default")
	}
	_ = lab
}

func TestEndToEndSyntheticAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic end-to-end in -short mode")
	}
	p := synth.Scaled(synth.ALL(), 40) // ~178 genes, 21 informative
	train, test, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		t.Fatal(err)
	}
	dTrain, err := dz.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	dTest, err := dz.Transform(test)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(dTrain, Config{K: 4, NL: 5, MinsupFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := c.PredictDataset(dTest)
	correct := 0
	for r, pr := range preds {
		if pr == dTest.Labels[r] {
			correct++
		}
	}
	acc := float64(correct) / float64(dTest.NumRows())
	if acc < 0.8 {
		t.Fatalf("synthetic test accuracy %.2f < 0.8", acc)
	}
}

func TestDefaultAccessors(t *testing.T) {
	d, _ := dataset.RunningExample()
	c, err := Train(d, Config{K: 1, NL: 1, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClassifiers() < 1 {
		t.Fatal("NumClassifiers")
	}
	_ = c.Default()
}

func TestTrainDegenerateNoRules(t *testing.T) {
	// A dataset where no rule group reaches minsup: the classifier falls
	// back to the majority class.
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "a"}, {GeneName: "b"}},
		Rows:       [][]int{{0}, {1}, {0}, {}},
		Labels:     []dataset.Label{0, 1, 1, 1},
		ClassNames: []string{"C", "notC"},
	}
	c, err := Train(d, Config{K: 1, NL: 1, MinsupFrac: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Default() != 1 {
		t.Fatalf("default = %v, want majority class notC", c.Default())
	}
	lab, idx := c.Predict(bitset.New(2))
	if lab != 1 || idx >= c.NumClassifiers() {
		t.Fatalf("prediction = (%v, %d)", lab, idx)
	}
}

func TestScoreZeroClassCount(t *testing.T) {
	if s := score(&rules.Rule{Class: 0, Support: 3, Confidence: 1}, []int{0, 5}); s != 0 {
		t.Fatalf("score with empty class = %v, want 0", s)
	}
}

func TestLoadRejectsMalformedModels(t *testing.T) {
	// Structurally valid JSON with inconsistent fields must be rejected.
	for name, doc := range map[string]string{
		"single class": `{"schema":1,"kind":"rcbt-model",
			"classifier":{"default":0,"classCount":[3],"numClasses":1,"subs":[]}}`,
		"norm length": `{"schema":1,"kind":"rcbt-model",
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,
			"subs":[{"rules":[],"norm":[1]}]}}`,
		"default out of range": `{"schema":1,"kind":"rcbt-model",
			"classifier":{"default":5,"classCount":[1,1],"numClasses":2,"subs":[]}}`,
		"rule class out of range": `{"schema":1,"kind":"rcbt-model",
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,
			"subs":[{"rules":[{"items":[0],"class":7,"sup":1,"conf":1}],"norm":[1,1]}]}}`,
		"wrong kind": `{"schema":1,"kind":"cba-model",
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,"subs":[]}}`,
		"future schema": `{"schema":99,"kind":"rcbt-model",
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,"subs":[]}}`,
		// A universe past dataset.MaxItems would make a server allocate a
		// row bitset that large, declared or derived from the rules.
		"declared universe past the cap": hugeUniverseEnvelope,
		"derived universe past the cap": `{"schema":1,"kind":"rcbt-model",
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,
			"subs":[{"rules":[{"items":[1099511627776],"class":0,"sup":1,"conf":1}],"norm":[1,1]}]}}`,
		"negative universe": `{"schema":1,"kind":"rcbt-model","numItems":-1,
			"classifier":{"default":0,"classCount":[1,1],"numClasses":2,"subs":[]}}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: malformed model must be rejected", name)
		}
	}
}

// pcProfile discretizes the training split of the PC synth profile at
// scale 15: 102 rows, two classes that both yield rule groups.
func pcProfile(t *testing.T) *dataset.Dataset {
	t.Helper()
	train, _, err := synth.Generate(synth.Scaled(synth.PC(), 15))
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dz.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTrainContextDeterministicAcrossWorkers trains the same data with
// one, two and eight classes mined at once: the classifiers must be
// deep-equal, because every class is an independent run that writes
// only its own result slot. Each run gets a fresh copy of the dataset,
// so its lazily built item index is built by that run.
func TestTrainContextDeterministicAcrossWorkers(t *testing.T) {
	fig1, _ := dataset.RunningExample()
	pc := pcProfile(t)
	for _, tc := range []struct {
		name string
		d    *dataset.Dataset
		cfg  Config
	}{
		{"figure1", fig1, Config{K: 3, NL: 5, MinsupFrac: 0.5}},
		{"pc15", pc, Config{}},
	} {
		ref, err := mineClasses(context.Background(), tc.d, tc.cfg.withDefaults(), classCounts(tc.d))
		if err != nil {
			t.Fatal(err)
		}
		for cls, res := range ref {
			if res == nil || len(res.Groups) == 0 {
				t.Fatalf("%s: class %d yields no groups; the data no longer exercises both classes", tc.name, cls)
			}
		}
		fresh := func() *dataset.Dataset {
			return &dataset.Dataset{Items: tc.d.Items, Rows: tc.d.Rows, Labels: tc.d.Labels, ClassNames: tc.d.ClassNames}
		}
		cfg := tc.cfg
		cfg.Workers = 1
		want, err := TrainContext(context.Background(), fresh(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			got, err := TrainContext(context.Background(), fresh(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Workers=%d classifier differs from Workers=1", tc.name, workers)
			}
		}
	}
}

// classCounts returns the training rows per class.
func classCounts(d *dataset.Dataset) []int {
	n := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		n[l]++
	}
	return n
}

// denseDataset builds a two-class table with ~2/3 density and
// alternating labels.
func denseDataset(rows, items int) *dataset.Dataset {
	r := rand.New(rand.NewSource(3))
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

// TestTrainContextCancelWhileClassesMine cancels once both classes have
// sent their first snapshot: every class run must stop at its next node
// entry and TrainContext must return ctx.Err() promptly.
func TestTrainContextCancelWhileClassesMine(t *testing.T) {
	d := denseDataset(100, 200)
	// The timeout only bounds a broken run: mining one class of this
	// table takes well over 10 s, so classes mined one at a time never
	// both start, and the run ends in DeadlineExceeded, not Canceled.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var started int
	var cancelledAt time.Time
	cfg := Config{K: 20, NL: 3, MinsupFrac: 0.1, Workers: 2,
		Progress: func(p engine.ProgressSnapshot) {
			// Each class run's first snapshot comes at its first stride.
			if p.Nodes == engine.DefaultProgressEvery {
				if started++; started == 2 {
					cancelledAt = time.Now()
					cancel()
				}
			}
		}}
	c, err := TrainContext(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c != nil {
		t.Fatal("cancelled training must not return a classifier")
	}
	if started != 2 {
		t.Fatalf("%d class runs started before the cancel, want 2", started)
	}
	if took := time.Since(cancelledAt); took > 2*time.Second {
		t.Fatalf("TrainContext returned %v after the cancel, want prompt", took)
	}
}

// TestTrainContextProgressNeverConcurrent mines both classes at once,
// each across many snapshot strides, and counts hook calls in flight:
// the count must never exceed one (run it under -race).
func TestTrainContextProgressNeverConcurrent(t *testing.T) {
	const maxNodes = 100_000
	var inFlight, overlaps, calls atomic.Int32
	cfg := Config{K: 20, NL: 3, MinsupFrac: 0.1, Workers: 2, MaxNodes: maxNodes,
		Progress: func(engine.ProgressSnapshot) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			calls.Add(1)
			runtime.Gosched() // widen the window for an overlapping call
			inFlight.Add(-1)
		}}
	if _, err := TrainContext(context.Background(), denseDataset(100, 200), cfg); err != nil {
		t.Fatal(err)
	}
	if want := int32(2 * (maxNodes/engine.DefaultProgressEvery + 1)); calls.Load() != want {
		t.Fatalf("progress hook ran %d times, want %d: every stride of both budget-capped classes plus their final snapshots", calls.Load(), want)
	}
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d of %d progress calls overlapped another call", n, calls.Load())
	}
}
