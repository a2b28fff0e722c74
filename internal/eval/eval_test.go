package eval

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func smallOpts() Options {
	return Options{
		K: 3, NL: 5, BagRounds: 3, BoostRounds: 3,
	}
}

func TestEvaluateProfileSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end evaluation in -short mode")
	}
	p := synth.Scaled(synth.ALL(), 50)
	res, err := EvaluateProfile(p, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != p.Name {
		t.Fatalf("dataset name = %q", res.Dataset)
	}
	if res.TrainRows != 38 || res.TestRows != 34 {
		t.Fatalf("rows = (%d, %d)", res.TrainRows, res.TestRows)
	}
	for _, name := range []string{NameRCBT, NameCBA, NameC45, NameSVM} {
		acc, ok := res.Accuracy[name]
		if !ok {
			t.Fatalf("%s missing: %v", name, res.Errors)
		}
		if acc < 0.5 {
			t.Errorf("%s accuracy %.2f below chance on separable data", name, acc)
		}
	}
	if res.GenesAfterDiscretization == 0 {
		t.Fatal("discretization selected no genes")
	}
}

func TestSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end evaluation in -short mode")
	}
	p := synth.Scaled(synth.ALL(), 100)
	opts := smallOpts()
	opts.Skip = map[string]bool{
		NameSVM: true, NameBagging: true, NameBoosting: true, NameIRG: true,
	}
	res, err := EvaluateProfile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Accuracy[NameSVM]; ok {
		t.Fatal("SVM should be skipped")
	}
	if _, ok := res.Accuracy[NameRCBT]; !ok {
		t.Fatalf("RCBT should run: %v", res.Errors)
	}
}

func TestFormatTable(t *testing.T) {
	results := []*Result{
		{Dataset: "A", Accuracy: map[string]float64{NameRCBT: 0.95, NameCBA: 0.9}},
		{Dataset: "B", Accuracy: map[string]float64{NameRCBT: 0.85}},
	}
	out := FormatTable(results)
	if !strings.Contains(out, "Dataset") || !strings.Contains(out, "Average") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "95.00%") || !strings.Contains(out, "90.00%") {
		t.Fatalf("table missing values:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for absent classifiers:\n%s", out)
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MinsupFrac != 0.7 || o.K != 10 || o.NL != 20 || o.IRGMinconf != 0.8 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.BagRounds != 10 || o.BoostRounds != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{MinsupFrac: 0.9, K: 2}.withDefaults()
	if o2.MinsupFrac != 0.9 || o2.K != 2 {
		t.Fatalf("overrides lost: %+v", o2)
	}
}

func TestEvaluateProfileInvalid(t *testing.T) {
	p := synth.ALL()
	p.Train1 = 0
	if _, err := EvaluateProfile(p, Options{}); err == nil {
		t.Fatal("invalid profile must error")
	}
}

func TestBestSVMErrorPath(t *testing.T) {
	// A single-sample training matrix makes both kernels fail.
	m := &dataset.Matrix{
		GeneNames:  []string{"g"},
		Values:     [][]float64{{1}},
		Labels:     []dataset.Label{0},
		ClassNames: []string{"a", "b"},
	}
	if _, err := bestSVM(m, m, 0); err == nil {
		t.Fatal("expected error from untrainable SVM")
	}
}
