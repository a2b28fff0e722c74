package rcbt

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// PredictItems classifies a row given as discretized item ids (the
// vocabulary the model was trained on). Item ids outside the model's
// universe are rejected so a schema-mismatched caller fails loudly.
func (m *Model) PredictItems(items []int) (dataset.Label, int, error) {
	set := bitset.New(m.NumItems)
	for _, it := range items {
		if it < 0 || it >= m.NumItems {
			return 0, 0, fmt.Errorf("rcbt: item id %d outside model universe [0,%d)", it, m.NumItems)
		}
		set.Add(it)
	}
	label, idx := m.Classifier.Predict(set)
	return label, idx, nil
}

// PredictValues classifies a raw expression row (one value per gene of
// the training matrix) by discretizing with the model's bundled cut
// points. It errors when the model carries no discretizer or the row
// width does not match the fitted gene count.
func (m *Model) PredictValues(values []float64) (dataset.Label, int, error) {
	if m.Discretizer == nil {
		return 0, 0, fmt.Errorf("rcbt: model has no discretizer; classify by item ids instead")
	}
	if got, want := len(values), len(m.Discretizer.GeneNames); got != want {
		return 0, 0, fmt.Errorf("rcbt: row has %d values, model fitted on %d genes", got, want)
	}
	return m.PredictItems(m.Discretizer.RowItems(values))
}

// ClassName renders a label with the model's class names, falling back
// to the numeric label for classifier-only envelopes.
func (m *Model) ClassName(l dataset.Label) string {
	if int(l) >= 0 && int(l) < len(m.ClassNames) {
		return m.ClassNames[l]
	}
	return fmt.Sprintf("%d", int(l))
}
