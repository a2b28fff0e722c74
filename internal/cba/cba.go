// Package cba implements the CBA classifier of Liu, Hsu & Ma [19] as
// built in Section 5.1: instead of CBA's exhaustive rule generation
// (infeasible on gene expression data), the candidate rules are the
// shortest lower bounds of the top-1 covering rule groups of each
// training row — a superset of CBA's selected rules by Lemma 2.2 — and
// the classifier is assembled with CBA's precedence sort, database
// coverage selection, and error-minimizing truncation.
package cba

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lowerbound"
	"repro/internal/rules"
)

// Config controls CBA training.
type Config struct {
	// MinsupFrac is the relative minimum support: the absolute threshold
	// for class c is engine.RelativeMinsup(MinsupFrac, |rows of class
	// c|). The paper uses 0.7.
	MinsupFrac float64
	// Minconf optionally filters candidate lower-bound rules (0 = none);
	// the paper notes all top-1 groups pass 0.8 in its experiments.
	Minconf float64
	// NL is the number of shortest lower bounds searched per rule group
	// (1 for classic CBA).
	NL int
}

// DefaultConfig mirrors the paper's CBA setup.
func DefaultConfig() Config {
	return Config{MinsupFrac: 0.7, Minconf: 0, NL: 1}
}

// Classifier is a CBA rule list with a default class.
type Classifier struct {
	Rules   []*rules.Rule
	Default dataset.Label
	// NumItems is the item universe rules are evaluated over.
	NumItems int
}

// Train builds a CBA classifier from the training dataset.
func Train(d *dataset.Dataset, cfg Config) (*Classifier, error) {
	if cfg.MinsupFrac <= 0 || cfg.MinsupFrac > 1 {
		return nil, fmt.Errorf("cba: MinsupFrac %v outside (0,1]", cfg.MinsupFrac)
	}
	if cfg.NL < 1 {
		return nil, fmt.Errorf("cba: NL must be >= 1, got %d", cfg.NL)
	}
	var pool []*rules.Rule
	itemScores := lowerbound.DefaultItemScores(d)
	for cls := 0; cls < d.NumClasses(); cls++ {
		label := dataset.Label(cls)
		n := d.ClassCount(label)
		if n == 0 {
			continue
		}
		res, err := core.Mine(d, label, core.DefaultConfig(engine.RelativeMinsup(cfg.MinsupFrac, n), 1))
		if err != nil {
			return nil, fmt.Errorf("cba: mining class %s: %w", d.ClassNames[cls], err)
		}
		lbs := LowerBoundPool(d, res.Groups, lowerbound.Config{
			NL:        cfg.NL,
			ItemScore: itemScores,
		})
		for _, r := range lbs {
			if r.Confidence >= cfg.Minconf {
				pool = append(pool, r)
			}
		}
	}
	rules.SortCBA(pool)
	selected, def := SelectRules(d, pool)
	return &Classifier{Rules: selected, Default: def, NumItems: d.NumItems()}, nil
}

// LowerBoundPool finds up to nl shortest lower bounds for every group
// (in parallel across groups) and returns the deduplicated union in
// group order.
func LowerBoundPool(d *dataset.Dataset, groups []*rules.Group, cfg lowerbound.Config) []*rules.Rule {
	var out []*rules.Rule
	seen := map[string]bool{}
	for _, lbs := range lowerbound.FindAll(d, groups, cfg) {
		for _, lb := range lbs {
			key := fmt.Sprintf("%d|%v", lb.Class, lb.Antecedent)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, lb)
		}
	}
	return out
}

// SelectRules performs CBA's Steps 3-4: database coverage selection over
// the precedence-sorted rule list, then truncation at the prefix with
// the fewest total errors (ties keep the earliest, shortest prefix). It
// returns the final rule list and default class.
func SelectRules(d *dataset.Dataset, sorted []*rules.Rule) ([]*rules.Rule, dataset.Label) {
	selected, checkpoints := coverageSelect(d, sorted)
	if len(selected) == 0 {
		return nil, majorityLabel(d, nil)
	}
	best := 0
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i].errors < checkpoints[best].errors {
			best = i
		}
	}
	return selected[:best+1], checkpoints[best].def
}

// CoverageSelect performs Step 3 only — database coverage selection
// without the error-minimizing truncation — as RCBT's sub-classifiers
// require (Section 5.2). The returned default class is the majority of
// the rows left uncovered after selection.
func CoverageSelect(d *dataset.Dataset, sorted []*rules.Rule) ([]*rules.Rule, dataset.Label) {
	selected, checkpoints := coverageSelect(d, sorted)
	if len(selected) == 0 {
		return nil, majorityLabel(d, nil)
	}
	return selected, checkpoints[len(checkpoints)-1].def
}

type checkpoint struct {
	def    dataset.Label
	errors int
}

// majorityLabel returns the majority class among rows of s (nil = all
// rows); ties go to the lower label, and an empty set yields label 0.
func majorityLabel(d *dataset.Dataset, s *bitset.Set) dataset.Label {
	counts := make([]int, d.NumClasses())
	if s == nil {
		for _, l := range d.Labels {
			counts[int(l)]++
		}
	} else {
		s.ForEach(func(r int) bool {
			counts[int(d.Labels[r])]++
			return true
		})
	}
	best, bestC := dataset.Label(0), -1
	for c, cnt := range counts {
		if cnt > bestC {
			best, bestC = dataset.Label(c), cnt
		}
	}
	return best
}

// coverageSelect is the shared Step 3 loop.
func coverageSelect(d *dataset.Dataset, sorted []*rules.Rule) ([]*rules.Rule, []checkpoint) {
	n := d.NumRows()
	remaining := bitset.New(n)
	remaining.Fill()
	rowItems := make([]*bitset.Set, n)
	for r := 0; r < n; r++ {
		rowItems[r] = d.RowItemSet(r)
	}

	var selected []*rules.Rule
	var checkpoints []checkpoint
	coveredErrors := 0

	for _, r := range sorted {
		if remaining.IsEmpty() {
			break
		}
		// Does r correctly classify at least one remaining row?
		correct := false
		var covered []int
		remaining.ForEach(func(row int) bool {
			if r.Matches(rowItems[row]) {
				covered = append(covered, row)
				if d.Labels[row] == r.Class {
					correct = true
				}
			}
			return true
		})
		if !correct {
			continue
		}
		selected = append(selected, r)
		for _, row := range covered {
			remaining.Remove(row)
			if d.Labels[row] != r.Class {
				coveredErrors++
			}
		}
		def := majorityLabel(d, remaining)
		defErrors := 0
		remaining.ForEach(func(row int) bool {
			if d.Labels[row] != def {
				defErrors++
			}
			return true
		})
		checkpoints = append(checkpoints, checkpoint{def: def, errors: coveredErrors + defErrors})
	}
	return selected, checkpoints
}

// Predict classifies a test row (as an item bitset). usedDefault
// reports whether no rule matched and the default class was used.
// The walk is allocation-free and safe for concurrent use.
//
//vet:allocfree
func (c *Classifier) Predict(rowItems *bitset.Set) (label dataset.Label, usedDefault bool) {
	for _, r := range c.Rules {
		if r.Matches(rowItems) {
			return r.Class, false
		}
	}
	return c.Default, true
}

// PredictDataset classifies every row of a (discretized) dataset and
// returns predicted labels plus the count of default-class decisions.
// The row item set is rebuilt into one reused scratch, so the loop
// performs no per-row allocations.
func (c *Classifier) PredictDataset(d *dataset.Dataset) ([]dataset.Label, int) {
	out := make([]dataset.Label, d.NumRows())
	defaults := 0
	rowItems := bitset.New(d.NumItems())
	for r := 0; r < d.NumRows(); r++ {
		d.RowItemSetInto(r, rowItems)
		lab, usedDef := c.Predict(rowItems)
		out[r] = lab
		if usedDef {
			defaults++
		}
	}
	return out, defaults
}
