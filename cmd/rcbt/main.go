// Command rcbt trains an RCBT classifier on a training expression
// matrix, optionally evaluates it on a test matrix, and saves/loads
// the versioned JSON model envelope served by rcbtserved.
//
// Usage:
//
//	rcbt -train train.txt [-test test.txt] [-k 10] [-nl 20] [-minsup 0.7] [-save model.json]
//	rcbt -load model.json -test test.txt
//
// A saved model bundles the discretization cut points, so -load does
// not need the training matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rcbt"
)

func main() {
	trainPath := flag.String("train", "", "training matrix file (required unless -load)")
	testPath := flag.String("test", "", "test matrix file")
	k := flag.Int("k", 10, "covering rule groups per row (main + k-1 standby classifiers)")
	nl := flag.Int("nl", 20, "lower-bound rules per rule group")
	minsup := flag.Float64("minsup", 0.7, "relative minimum support")
	saveModel := flag.String("save", "", "write the trained model (JSON envelope) to this path")
	loadModel := flag.String("load", "", "load a model envelope instead of training")
	flag.Parse()

	if *trainPath == "" && *loadModel == "" {
		flag.Usage()
		os.Exit(2)
	}

	var model *rcbt.Model
	if *loadModel != "" {
		m, err := rcbt.LoadModelFile(*loadModel)
		if err != nil {
			fail(err)
		}
		model = m
		fmt.Printf("loaded model from %s (schema v%d, %d classes, %d items)\n",
			*loadModel, rcbt.ModelSchemaVersion, len(model.ClassNames), model.NumItems)
	} else {
		m, err := trainModel(*trainPath, *k, *nl, *minsup)
		if err != nil {
			fail(err)
		}
		model = m
	}
	c := model.Classifier
	fmt.Printf("classifiers built: %d (1 main + %d standby), default class %s\n",
		c.NumClassifiers(), c.NumClassifiers()-1, model.ClassName(c.Default()))

	if *saveModel != "" {
		if err := model.SaveFile(*saveModel); err != nil {
			fail(err)
		}
		fmt.Printf("saved model to %s\n", *saveModel)
	}

	if *testPath != "" {
		if err := evaluate(model, *testPath); err != nil {
			fail(err)
		}
	}
}

func trainModel(trainPath string, k, nl int, minsup float64) (*rcbt.Model, error) {
	train, err := loadMatrix(trainPath)
	if err != nil {
		return nil, err
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		return nil, err
	}
	dTrain, err := dz.Transform(train)
	if err != nil {
		return nil, err
	}
	fmt.Printf("genes: %d raw, %d after entropy discretization; %d items\n",
		train.NumGenes(), dz.NumSelectedGenes(), dTrain.NumItems())
	c, err := rcbt.Train(dTrain, rcbt.Config{K: k, NL: nl, MinsupFrac: minsup})
	if err != nil {
		return nil, err
	}
	return &rcbt.Model{
		Classifier:  c,
		Discretizer: dz,
		ClassNames:  dTrain.ClassNames,
		NumItems:    dTrain.NumItems(),
		Meta: rcbt.Meta{
			Dataset:   filepath.Base(trainPath),
			TrainRows: dTrain.NumRows(),
			Genes:     train.NumGenes(),
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
		},
	}, nil
}

func evaluate(model *rcbt.Model, testPath string) error {
	if model.Discretizer == nil {
		return fmt.Errorf("model has no discretizer; cannot evaluate a raw matrix")
	}
	test, err := loadMatrix(testPath)
	if err != nil {
		return err
	}
	dTest, err := model.Discretizer.Transform(test)
	if err != nil {
		return err
	}
	preds, stats := model.Classifier.PredictDataset(dTest)
	correct := 0
	for r, p := range preds {
		if p == dTest.Labels[r] {
			correct++
		}
	}
	fmt.Printf("test accuracy: %d/%d = %.2f%%\n", correct, dTest.NumRows(),
		100*float64(correct)/float64(dTest.NumRows()))
	fmt.Printf("decided by main classifier: %d, standby: %v, default class: %d\n",
		first(stats.ByClassifier), rest(stats.ByClassifier), stats.Defaults)
	return nil
}

func first(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

func rest(xs []int) []int {
	if len(xs) <= 1 {
		return nil
	}
	return xs[1:]
}

func loadMatrix(path string) (*dataset.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // vetsuite:allow uncheckederr -- read-only file, nothing buffered to lose
	return dataset.ReadMatrix(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcbt:", err)
	os.Exit(1)
}
