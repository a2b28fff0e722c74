// Package eval is the end-to-end evaluation harness behind the Table 2
// / Figure 7 experiments: it turns a synthetic profile (or a supplied
// train/test matrix pair) into discretized datasets, trains every
// classifier the paper compares — RCBT, CBA, IRG, the C4.5 family, and
// SVM — and reports test accuracies plus the default-class statistics
// of Section 6.2.
package eval

import (
	"fmt"
	"strings"

	"repro/internal/c45"
	"repro/internal/cba"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/irg"
	"repro/internal/rcbt"
	"repro/internal/svm"
	"repro/internal/synth"
)

// Options parameterizes a full evaluation run. Zero values select the
// paper's settings.
type Options struct {
	MinsupFrac  float64 // default 0.7
	K           int     // RCBT k, default 10
	NL          int     // RCBT nl, default 20
	IRGMinconf  float64 // default 0.8
	BagRounds   int     // default 10
	BoostRounds int     // default 10
	Seed        int64
	// Workers bounds RCBT training's goroutines: classes mined and
	// FindLB searches run at once (0 or 1 = one at a time; accuracy is
	// unaffected, only training wall time).
	Workers int
	// Skip disables named classifiers (keys of Result.Accuracy).
	Skip map[string]bool
}

func (o Options) withDefaults() Options {
	if o.MinsupFrac == 0 {
		o.MinsupFrac = 0.7
	}
	if o.K == 0 {
		o.K = 10
	}
	if o.NL == 0 {
		o.NL = 20
	}
	if o.IRGMinconf == 0 {
		o.IRGMinconf = 0.8
	}
	if o.BagRounds == 0 {
		o.BagRounds = 10
	}
	if o.BoostRounds == 0 {
		o.BoostRounds = 10
	}
	return o
}

// Classifier names reported by Evaluate, in Table 2 column order.
const (
	NameRCBT     = "RCBT"
	NameCBA      = "CBA"
	NameIRG      = "IRG"
	NameC45      = "C4.5"
	NameBagging  = "Bagging"
	NameBoosting = "Boosting"
	NameSVM      = "SVM"
)

// Columns lists classifier names in Table 2 order.
func Columns() []string {
	return []string{NameRCBT, NameCBA, NameIRG, NameC45, NameBagging, NameBoosting, NameSVM}
}

// Result holds one dataset's evaluation.
type Result struct {
	Dataset string
	// Accuracy per classifier name; absent when skipped or failed.
	Accuracy map[string]float64
	// Errors per classifier name when training failed.
	Errors map[string]string
	// DefaultsUsed / DefaultErrors: rule-based classifiers' default
	// decisions on test data and how many were wrong.
	DefaultsUsed  map[string]int
	DefaultErrors map[string]int
	// StandbyUsed[j] = test rows decided by RCBT's j-th standby
	// classifier (index 0 = first standby, i.e. CL_2).
	StandbyUsed []int
	// GenesAfterDiscretization is Table 1's feature-selection output.
	GenesAfterDiscretization int
	NumItems                 int
	TrainRows, TestRows      int
}

// EvaluateProfile generates a synthetic profile and evaluates it.
func EvaluateProfile(p synth.Profile, opts Options) (*Result, error) {
	train, test, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	res, err := Evaluate(train, test, opts)
	if err != nil {
		return nil, err
	}
	res.Dataset = p.Name
	return res, nil
}

// Evaluate discretizes the training matrix, trains all classifiers, and
// scores them on the test matrix.
func Evaluate(train, test *dataset.Matrix, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		return nil, fmt.Errorf("eval: discretize: %w", err)
	}
	dTrain, err := dz.Transform(train)
	if err != nil {
		return nil, fmt.Errorf("eval: transform train: %w", err)
	}
	dTest, err := dz.Transform(test)
	if err != nil {
		return nil, fmt.Errorf("eval: transform test: %w", err)
	}

	res := &Result{
		Accuracy:                 map[string]float64{},
		Errors:                   map[string]string{},
		DefaultsUsed:             map[string]int{},
		DefaultErrors:            map[string]int{},
		GenesAfterDiscretization: dz.NumSelectedGenes(),
		NumItems:                 dTrain.NumItems(),
		TrainRows:                train.NumRows(),
		TestRows:                 test.NumRows(),
	}

	skip := func(name string) bool { return opts.Skip[name] }

	if !skip(NameRCBT) {
		c, err := rcbt.Train(dTrain, rcbt.Config{
			K: opts.K, NL: opts.NL, MinsupFrac: opts.MinsupFrac,
			Workers: opts.Workers,
		})
		if err != nil {
			res.Errors[NameRCBT] = err.Error()
		} else {
			preds, stats := c.PredictDataset(dTest)
			res.Accuracy[NameRCBT] = accuracy(preds, dTest.Labels)
			res.DefaultsUsed[NameRCBT] = stats.Defaults
			res.DefaultErrors[NameRCBT] = defaultErrors(c, dTest)
			if len(stats.ByClassifier) > 1 {
				res.StandbyUsed = stats.ByClassifier[1:]
			}
		}
	}
	if !skip(NameCBA) {
		c, err := cba.Train(dTrain, cba.Config{
			MinsupFrac: opts.MinsupFrac, NL: 1,
		})
		if err != nil {
			res.Errors[NameCBA] = err.Error()
		} else {
			preds, defs := c.PredictDataset(dTest)
			res.Accuracy[NameCBA] = accuracy(preds, dTest.Labels)
			res.DefaultsUsed[NameCBA] = defs
			wrong := 0
			for r := 0; r < dTest.NumRows(); r++ {
				if lab, usedDef := c.Predict(dTest.RowItemSet(r)); usedDef && lab != dTest.Labels[r] {
					wrong++
				}
			}
			res.DefaultErrors[NameCBA] = wrong
		}
	}
	if !skip(NameIRG) {
		c, err := irg.Train(dTrain, irg.Config{
			MinsupFrac: opts.MinsupFrac, Minconf: opts.IRGMinconf, K: 1,
		})
		if err != nil {
			res.Errors[NameIRG] = err.Error()
		} else {
			preds, defs := c.PredictDataset(dTest)
			res.Accuracy[NameIRG] = accuracy(preds, dTest.Labels)
			res.DefaultsUsed[NameIRG] = defs
		}
	}

	// C4.5 family and SVM run on the genes selected by discretization,
	// with the original real values (Section 6.2's protocol).
	genes := dz.SelectedGenes()
	if len(genes) > 0 {
		mTrain := train.SelectGenes(genes)
		mTest := test.SelectGenes(genes)
		if !skip(NameC45) {
			t, err := c45.TrainTree(mTrain, c45.DefaultConfig())
			if err != nil {
				res.Errors[NameC45] = err.Error()
			} else {
				res.Accuracy[NameC45] = accuracyFn(t.Predict, mTest)
			}
		}
		if !skip(NameBagging) {
			b, err := c45.TrainBagging(mTrain, c45.DefaultConfig(), opts.BagRounds, opts.Seed)
			if err != nil {
				res.Errors[NameBagging] = err.Error()
			} else {
				res.Accuracy[NameBagging] = accuracyFn(b.Predict, mTest)
			}
		}
		if !skip(NameBoosting) {
			b, err := c45.TrainBoosting(mTrain, c45.DefaultConfig(), opts.BoostRounds, opts.Seed)
			if err != nil {
				res.Errors[NameBoosting] = err.Error()
			} else {
				res.Accuracy[NameBoosting] = accuracyFn(b.Predict, mTest)
			}
		}
		if !skip(NameSVM) {
			acc, err := bestSVM(mTrain, mTest, opts.Seed)
			if err != nil {
				res.Errors[NameSVM] = err.Error()
			} else {
				res.Accuracy[NameSVM] = acc
			}
		}
	}
	return res, nil
}

// bestSVM mirrors the paper's protocol: report the better of linear and
// polynomial kernels.
func bestSVM(train, test *dataset.Matrix, seed int64) (float64, error) {
	best := -1.0
	var firstErr error
	for _, k := range []svm.Kernel{svm.Linear, svm.Poly} {
		cfg := svm.DefaultConfig()
		cfg.Kernel = k
		cfg.Seed = seed
		m, err := svm.Train(train, cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if acc := accuracyFn(m.Predict, test); acc > best {
			best = acc
		}
	}
	if best < 0 {
		return 0, firstErr
	}
	return best, nil
}

func accuracy(preds, labels []dataset.Label) float64 {
	if len(preds) == 0 {
		return 0
	}
	ok := 0
	for i := range preds {
		if preds[i] == labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(preds))
}

func accuracyFn(pred func([]float64) dataset.Label, m *dataset.Matrix) float64 {
	ok := 0
	for i, row := range m.Values {
		if pred(row) == m.Labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(m.NumRows())
}

// defaultErrors counts wrong default-class decisions of an RCBT model.
func defaultErrors(c *rcbt.Classifier, dTest *dataset.Dataset) int {
	wrong := 0
	for r := 0; r < dTest.NumRows(); r++ {
		if lab, idx := c.Predict(dTest.RowItemSet(r)); idx < 0 && lab != dTest.Labels[r] {
			wrong++
		}
	}
	return wrong
}

// FormatTable renders results as a Table 2-style text table, appending
// an average-accuracy row.
func FormatTable(results []*Result) string {
	cols := Columns()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "Dataset")
	for _, c := range cols {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s", r.Dataset)
		for _, c := range cols {
			if acc, ok := r.Accuracy[c]; ok {
				fmt.Fprintf(&b, "%9.2f%%", acc*100)
				sums[c] += acc
				counts[c]++
			} else {
				fmt.Fprintf(&b, "%10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "Average")
	for _, c := range cols {
		if counts[c] > 0 {
			fmt.Fprintf(&b, "%9.2f%%", sums[c]/float64(counts[c])*100)
		} else {
			fmt.Fprintf(&b, "%10s", "-")
		}
	}
	b.WriteByte('\n')
	return b.String()
}
