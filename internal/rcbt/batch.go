package rcbt

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// BatchScorer is the rule-major batch classification kernel: instead of
// walking every rule once per row (the scalar Predict loop), it builds
// the transposed item-presence view of a batch — per item, the set of
// batch rows containing it — with bitset.ColumnView's 64×64 block
// transpose, and evaluates each rule against all rows at once as one
// fused bitset sweep (ColumnView.MatchRows ANDs the rule's antecedent
// columns, accumulates the matched rows, and scatter-adds the rule's
// score in a single pass). Each sweep is masked by the set of rows no
// earlier sub-classifier decided, so later sub-classifiers cost nothing
// for rows the main classifier already settled — the batch analogue of
// the scalar loop's early return. Per-row per-class scores accumulate
// into preallocated arenas, so after warm-up a batch costs zero heap
// allocations.
//
// A BatchScorer is bound to one Classifier and one item universe. It is
// NOT safe for concurrent use: callers pool scorers (one per in-flight
// batch) rather than locking one.
//
// Output equivalence: for every row, PredictInto yields exactly the
// (label, classifierIdx) pair of Classifier.Predict on that row. Rules
// are visited in the same order, so per-row score accumulation performs
// the identical float64 additions in the identical order — ties and
// rounding behave bit-for-bit the same.
type BatchScorer struct {
	c        *Classifier
	numItems int

	// view holds the transposed batch; only word groups containing an
	// item some rule antecedent references are materialized.
	view *bitset.ColumnView

	// ruleScore[j][ri] is the precomputed S(γ) of rule ri of sub j;
	// ruleBases[j][ri] its antecedent column bases into the view.
	// Bases depend on the view's capacity, so Grow rebuilds them.
	ruleScore [][]float64
	ruleBases [][][]int32

	capRows   int
	matchedJ  *bitset.Set // undecided rows matched by any rule of the sub
	undecided *bitset.Set
	rowBuf    []int
	scores    []float64 // numClasses × capRows, class-major stripes
}

// NewBatchScorer builds a scorer for c over an item universe of
// numItems (the model's NumItems; every rule antecedent must index
// into it). Arenas start at capacity zero and grow on first use; call
// Grow to pre-size them.
func NewBatchScorer(c *Classifier, numItems int) *BatchScorer {
	b := &BatchScorer{c: c, numItems: numItems}
	used := bitset.New(numItems)
	b.ruleScore = make([][]float64, len(c.subs))
	for j := range c.subs {
		sub := &c.subs[j]
		b.ruleScore[j] = make([]float64, len(sub.rules))
		for ri, r := range sub.rules {
			for _, it := range r.Antecedent {
				if it < 0 || it >= numItems {
					// vetsuite:allow panic -- caller precondition: numItems must cover every antecedent, as a trained model's does
					panic(fmt.Sprintf("rcbt: rule antecedent item %d outside universe [0,%d)", it, numItems))
				}
				used.Add(it)
			}
			b.ruleScore[j][ri] = score(r, c.classCount)
		}
	}
	b.view = bitset.NewColumnView(numItems, used)
	return b
}

// Grow ensures the arenas hold a batch of up to n rows. It is called
// automatically by PredictInto; pre-growing (e.g. to a server's max
// batch size) moves every allocation out of the steady state.
func (b *BatchScorer) Grow(n int) {
	if n <= b.capRows {
		return
	}
	b.capRows = n
	b.view.Grow(n)
	b.matchedJ = bitset.New(n)
	b.undecided = bitset.New(n)
	b.rowBuf = make([]int, 0, n)
	b.scores = make([]float64, b.c.numClasses*n)
	b.ruleBases = make([][][]int32, len(b.c.subs))
	for j := range b.c.subs {
		sub := &b.c.subs[j]
		b.ruleBases[j] = make([][]int32, len(sub.rules))
		for ri, r := range sub.rules {
			bases := make([]int32, len(r.Antecedent))
			for k, it := range r.Antecedent {
				bases[k] = b.view.ColumnBase(it)
			}
			b.ruleBases[j][ri] = bases
		}
	}
}

// PredictBatch classifies a batch of rows (item sets over the scorer's
// universe) and returns freshly allocated label and classifier-index
// slices; see PredictInto for the zero-allocation form.
func (b *BatchScorer) PredictBatch(rows []*bitset.Set) ([]dataset.Label, []int) {
	labels := make([]dataset.Label, len(rows))
	idxs := make([]int, len(rows))
	b.PredictInto(rows, labels, idxs)
	return labels, idxs
}

// PredictInto classifies rows[i] into labels[i] and idxs[i] (the
// deciding sub-classifier, or -1 for the default class). labels and
// idxs must have at least len(rows) elements. After the arenas have
// grown to the batch size, the call performs zero heap allocations.
//
//vet:allocfree
func (b *BatchScorer) PredictInto(rows []*bitset.Set, labels []dataset.Label, idxs []int) {
	n := len(rows)
	if n == 0 {
		return
	}
	b.Grow(n) // one-time arena growth; the steady state takes the n <= capRows fast path

	// Item-major view of the batch: the column of item i = the rows
	// containing i, for every item some rule antecedent references.
	b.view.Build(rows)

	numClasses := b.c.numClasses
	b.undecided.FillBelow(n)
	for j := range b.c.subs {
		if b.undecided.IsEmpty() {
			break
		}
		sub := &b.c.subs[j]
		for cls := 0; cls < numClasses; cls++ {
			clear(b.scores[cls*b.capRows : cls*b.capRows+n])
		}
		b.matchedJ.Clear()
		for ri, r := range sub.rules {
			// match = undecided ∩ (∩ antecedent columns): the undecided
			// mask leads the sweep, so rows decided by an earlier
			// sub-classifier are skipped before any scoring work. Decided
			// rows' scores are never read, so skipping their additions
			// preserves output equivalence.
			b.view.MatchRows(b.undecided, b.ruleBases[j][ri], b.matchedJ,
				b.scores[int(r.Class)*b.capRows:], b.ruleScore[j][ri])
		}
		if b.matchedJ.IsEmpty() {
			continue
		}
		// Decide the rows this sub-classifier matched (all of matchedJ is
		// still undecided by construction).
		b.rowBuf = b.matchedJ.AppendIndicesBelow(b.rowBuf[:0], n)
		norm := sub.norm
		for _, rr := range b.rowBuf {
			best, bestScore := 0, -1.0
			for cls := 0; cls < numClasses; cls++ {
				v := b.scores[cls*b.capRows+rr]
				if norm[cls] > 0 {
					v /= norm[cls]
				}
				if v > bestScore {
					best, bestScore = cls, v
				}
			}
			labels[rr] = dataset.Label(best)
			idxs[rr] = j
		}
		b.undecided.DifferenceWith(b.matchedJ)
	}

	// Default class for whatever no sub-classifier matched.
	b.rowBuf = b.undecided.AppendIndicesBelow(b.rowBuf[:0], n)
	for _, rr := range b.rowBuf {
		labels[rr] = b.c.def
		idxs[rr] = -1
	}
}

// PredictDatasetBatch classifies every row of a discretized dataset
// through the rule-major kernel; output deep-equals
// Classifier.PredictDataset.
func (b *BatchScorer) PredictDatasetBatch(d *dataset.Dataset) ([]dataset.Label, Stats) {
	n := d.NumRows()
	rows := make([]*bitset.Set, n)
	for r := 0; r < n; r++ {
		rows[r] = d.RowItemSet(r)
	}
	labels := make([]dataset.Label, n)
	idxs := make([]int, n)
	b.PredictInto(rows, labels, idxs)
	stats := Stats{ByClassifier: make([]int, len(b.c.subs))}
	for _, idx := range idxs {
		if idx < 0 {
			stats.Defaults++
		} else {
			stats.ByClassifier[idx]++
		}
	}
	return labels, stats
}
