package cba

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/lowerbound"
	"repro/internal/rules"
)

func TestSelectRulesCoverage(t *testing.T) {
	// Four rows, two items. Rule A ({0} -> C) covers rows 0,1,2 (one
	// wrong); rule B ({1} -> notC) covers row 3.
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "x"}, {GeneName: "y"}},
		Rows:       [][]int{{0}, {0}, {0}, {1}},
		Labels:     []dataset.Label{0, 0, 1, 1},
		ClassNames: []string{"C", "notC"},
	}
	ruleA := &rules.Rule{Antecedent: []int{0}, Class: 0, Support: 2, Confidence: 2.0 / 3.0}
	ruleB := &rules.Rule{Antecedent: []int{1}, Class: 1, Support: 1, Confidence: 1.0}
	sorted := []*rules.Rule{ruleB, ruleA} // precedence: B (conf 1.0) first
	// Checkpoints: after B → default C, 1 error (row 2); after A →
	// 1 error (row 2 covered wrongly). Tie keeps the shortest prefix.
	selected, def := SelectRules(d, sorted)
	if len(selected) != 1 || selected[0] != ruleB {
		t.Fatalf("selected %d rules, want just B", len(selected))
	}
	if def != 0 {
		t.Fatalf("default = %v, want C", def)
	}
	// Coverage-only selection keeps both, in precedence order.
	both, _ := CoverageSelect(d, sorted)
	if len(both) != 2 || both[0] != ruleB || both[1] != ruleA {
		t.Fatalf("CoverageSelect = %v, want [B A]", both)
	}
}

func TestSelectRulesSkipsUselessRule(t *testing.T) {
	// A rule that matches nothing (or only misclassifies) is skipped.
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "x"}, {GeneName: "y"}},
		Rows:       [][]int{{0}, {0}},
		Labels:     []dataset.Label{0, 0},
		ClassNames: []string{"C", "notC"},
	}
	wrong := &rules.Rule{Antecedent: []int{0}, Class: 1, Support: 1, Confidence: 1}
	nomatch := &rules.Rule{Antecedent: []int{1}, Class: 0, Support: 1, Confidence: 1}
	right := &rules.Rule{Antecedent: []int{0}, Class: 0, Support: 2, Confidence: 1}
	selected, def := SelectRules(d, []*rules.Rule{wrong, nomatch, right})
	if len(selected) != 1 || selected[0] != right {
		t.Fatalf("selected = %v, want only the correct rule", selected)
	}
	if def != 0 {
		t.Fatalf("default = %v, want 0", def)
	}
}

func TestSelectRulesTruncation(t *testing.T) {
	// A later rule that only adds errors must be truncated away.
	// Rows: 0,1 class C with item 0; row 2 class notC with items 0,1.
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "x"}, {GeneName: "y"}, {GeneName: "z"}},
		Rows:       [][]int{{0}, {0}, {0, 1}, {2}},
		Labels:     []dataset.Label{0, 0, 1, 1},
		ClassNames: []string{"C", "notC"},
	}
	// good covers rows 0,1,2 correctly classifying 0,1 (error on 2);
	// after it, default notC absorbs row 3 with 0 errors → checkpoint
	// error 1. keep then covers row 3 correctly → also error 1. On the
	// tie, CBA keeps the earliest (shortest) prefix: only `good`, with
	// default notC handling row 3.
	good := &rules.Rule{Antecedent: []int{0}, Class: 0, Support: 2, Confidence: 0.9}
	keep := &rules.Rule{Antecedent: []int{2}, Class: 1, Support: 1, Confidence: 0.8}
	selected, def := SelectRules(d, []*rules.Rule{good, keep})
	if len(selected) != 1 || selected[0] != good {
		t.Fatalf("selected %d rules, want only the first", len(selected))
	}
	if def != 1 {
		t.Fatalf("default = %v, want notC", def)
	}
	// CoverageSelect (Step 3 only) keeps both.
	both, _ := CoverageSelect(d, []*rules.Rule{good, keep})
	if len(both) != 2 {
		t.Fatalf("CoverageSelect kept %d rules, want 2", len(both))
	}
}

func TestSelectRulesEmptyPool(t *testing.T) {
	d, _ := dataset.RunningExample()
	selected, def := SelectRules(d, nil)
	if selected != nil {
		t.Fatal("empty pool should select nothing")
	}
	if def != 0 {
		t.Fatalf("default should be majority class C, got %v", def)
	}
}

func TestTrainOnRunningExample(t *testing.T) {
	d, _ := dataset.RunningExample()
	cfg := DefaultConfig()
	cfg.MinsupFrac = 0.5
	c, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rules) == 0 {
		t.Fatal("classifier should have rules")
	}
	// Training accuracy should be high: the top-1 groups separate the
	// example well.
	preds, _ := c.PredictDataset(d)
	correct := 0
	for r, p := range preds {
		if p == d.Labels[r] {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("training accuracy %d/5 too low", correct)
	}
}

func TestTrainValidation(t *testing.T) {
	d, _ := dataset.RunningExample()
	if _, err := Train(d, Config{MinsupFrac: 0, NL: 1}); err == nil {
		t.Fatal("MinsupFrac=0 must error")
	}
	if _, err := Train(d, Config{MinsupFrac: 0.5, NL: 0}); err == nil {
		t.Fatal("NL=0 must error")
	}
}

func TestPredictDefault(t *testing.T) {
	c := &Classifier{
		Rules:    []*rules.Rule{{Antecedent: []int{5}, Class: 0}},
		Default:  1,
		NumItems: 10,
	}
	lab, usedDef := c.Predict(bitset.FromIndices(10, 1, 2))
	if !usedDef || lab != 1 {
		t.Fatalf("expected default class, got %v (default=%v)", lab, usedDef)
	}
	lab, usedDef = c.Predict(bitset.FromIndices(10, 5))
	if usedDef || lab != 0 {
		t.Fatalf("expected rule match, got %v (default=%v)", lab, usedDef)
	}
}

func TestLowerBoundPoolDedup(t *testing.T) {
	d, idx := dataset.RunningExample()
	sup := d.SupportSet([]int{idx["a"]})
	g := &rules.Group{
		Antecedent: d.CommonItems(sup),
		Class:      0,
		Support:    2,
		Confidence: 1,
		Rows:       sup,
	}
	// The same group twice must not duplicate rules: abc -> C has the
	// two lower bounds a and b (Example 2.2).
	pool := LowerBoundPool(d, []*rules.Group{g, g}, lowerbound.Config{NL: 5})
	if len(pool) != 2 {
		t.Fatalf("pool has %d rules, want 2 (deduplicated)", len(pool))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, _ := dataset.RunningExample()
	cfg := DefaultConfig()
	cfg.MinsupFrac = 0.5
	c, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Rules) != len(c.Rules) || loaded.Default != c.Default {
		t.Fatal("model changed across save/load")
	}
	for r := 0; r < d.NumRows(); r++ {
		items := d.RowItemSet(r)
		l1, d1 := c.Predict(items)
		l2, d2 := loaded.Predict(items)
		if l1 != l2 || d1 != d2 {
			t.Fatalf("row %d: prediction changed", r)
		}
	}
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage input must error")
	}
}
