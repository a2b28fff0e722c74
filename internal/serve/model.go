package serve

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rcbt"
)

// servedModel is a model plus the per-model serving state the read
// path needs: the prediction cache and a pool of discretized-row
// bitsets, so steady-state requests allocate no row storage.
type servedModel struct {
	model *rcbt.Model
	cache *predictCache
	rows  sync.Pool // *bitset.Set over the model universe
}

func newServedModel(m *rcbt.Model) *servedModel {
	sm := &servedModel{model: m, cache: newPredictCache(DefaultCacheSize)}
	sm.rows.New = func() any { return bitset.New(m.NumItems) }
	return sm
}

// classify labels one request row (the values/items one-of) and is the
// only code in the package that does. The row is discretized into a
// pooled bitset over the model universe and looked up in the
// prediction cache; a miss walks the classifier's rules
// (Classifier.Predict) and memoizes the answer.
func (sm *servedModel) classify(values []float64, items []int) (dataset.Label, int, error) {
	m := sm.model
	switch {
	case len(values) > 0 && len(items) > 0:
		return -1, -1, shapeError("set exactly one of values or items, not both")
	case len(values) > 0:
		if m.Discretizer == nil {
			return -1, -1, fmt.Errorf("rcbt: model has no discretizer; classify by item ids instead")
		}
		if got, want := len(values), len(m.Discretizer.GeneNames); got != want {
			return -1, -1, fmt.Errorf("rcbt: row has %d values, model fitted on %d genes", got, want)
		}
		items = m.Discretizer.RowItems(values)
	case len(items) == 0:
		return -1, -1, shapeError("set one of values or items")
	}
	row := sm.rows.Get().(*bitset.Set)
	defer sm.rows.Put(row)
	row.Clear()
	for _, it := range items {
		if it < 0 || it >= m.NumItems {
			return -1, -1, fmt.Errorf("rcbt: item id %d outside model universe [0,%d)", it, m.NumItems)
		}
		row.Add(it)
	}
	if label, idx, ok := sm.cache.get(row); ok {
		return label, idx, nil
	}
	label, idx := m.Classifier.Predict(row)
	sm.cache.put(row, label, idx)
	return label, idx, nil
}
