// Package rcbt implements RCBT (Refined Classification Based on
// TopkRGS, Section 5.2): a main classifier plus k-1 standby classifiers
// built from the top-1..top-k covering rule groups, each classifying by
// aggregating normalized voting scores S(γ) = conf·sup/d_c over all of
// its matching rules, with the default class used only when no
// classifier matches — addressing CBA's open default-class problem.
package rcbt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/cba"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lowerbound"
	"repro/internal/rules"
)

// Config controls RCBT training. The zero value trains with the
// paper's defaults (K=10, NL=20, MinsupFrac=0.7); any field left at
// zero takes its default. The tuning fields are Workers, MaxNodes and
// Timeout.
type Config struct {
	// K is the number of covering rule groups per row: one main
	// classifier plus K-1 standby classifiers (paper: 10; 0 = 10).
	K int
	// NL is the number of shortest lower-bound rules per rule group
	// (paper: 20; 0 = 20).
	NL int
	// MinsupFrac is the per-class relative minimum support (paper: 0.7;
	// 0 = 0.7).
	MinsupFrac float64
	// LBMaxLen / LBMaxCandidates bound the FindLB search (0 = defaults).
	LBMaxLen        int
	LBMaxCandidates int
	// Workers is how many classes are mined at once (0 or 1 = one at
	// a time). Each class is an independent MineTopkRGS run on one
	// goroutine, so the trained classifier is identical at every value.
	Workers int
	// MaxNodes caps enumeration nodes per mined class (0 = unbounded);
	// when exceeded the miner returns its partial per-row lists and
	// training proceeds on those.
	MaxNodes int
	// Timeout bounds the whole training run (0 = no limit). It composes
	// with any deadline already on the caller's context; whichever
	// expires first aborts training with context.DeadlineExceeded.
	Timeout time.Duration
	// Progress, when non-nil, receives engine.ProgressSnapshots from the
	// per-class mining runs (the expensive half of training). Snapshots
	// restart from zero for each mined class; with Workers > 1 the
	// snapshots of classes mined at once interleave. Calls are
	// serialized, never concurrent.
	Progress      engine.ProgressFunc
	ProgressEvery int
}

// DefaultConfig mirrors the paper's RCBT setup (k=10, nl=20,
// minsup=0.7). Since the zero Config now defaults every unset field,
// DefaultConfig is equivalent to Config{} and kept for readability.
func DefaultConfig() Config { return Config{K: 10, NL: 20, MinsupFrac: 0.7} }

// withDefaults resolves zero fields to the paper's defaults.
func (cfg Config) withDefaults() Config {
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.NL == 0 {
		cfg.NL = 20
	}
	if cfg.MinsupFrac == 0 {
		cfg.MinsupFrac = 0.7
	}
	return cfg
}

// Validate reports the first invalid field of the config, after
// zero-value defaulting. A nil error means Train will accept it.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return fmt.Errorf("rcbt: K must be >= 1, got %d", cfg.K)
	}
	if cfg.NL < 1 {
		return fmt.Errorf("rcbt: NL must be >= 1, got %d", cfg.NL)
	}
	if cfg.MinsupFrac < 0 || cfg.MinsupFrac > 1 {
		return fmt.Errorf("rcbt: MinsupFrac %v outside (0,1]", cfg.MinsupFrac)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("rcbt: Workers must be >= 0, got %d", cfg.Workers)
	}
	if cfg.MaxNodes < 0 {
		return fmt.Errorf("rcbt: MaxNodes must be >= 0, got %d", cfg.MaxNodes)
	}
	if cfg.Timeout < 0 {
		return fmt.Errorf("rcbt: Timeout must be >= 0, got %v", cfg.Timeout)
	}
	return nil
}

// subClassifier is one of CL_1..CL_k: a coverage-selected rule list
// with per-class score normalizers.
type subClassifier struct {
	rules []*rules.Rule
	norm  []float64 // per class: sum of S(γ) over the classifier's rules
}

// Classifier is a trained RCBT model.
type Classifier struct {
	subs       []subClassifier
	def        dataset.Label
	classCount []int // training rows per class (the d_c of S(γ))
	numClasses int
}

// ConstantClassifier builds a rule-free classifier that answers def
// for every row (every prediction reports the default-class path,
// classifier index -1). It exists for serving tests and placeholders —
// notably hot-swap tests that need a model guaranteed to disagree with
// a trained one on any row.
func ConstantClassifier(def dataset.Label, numClasses int) *Classifier {
	if numClasses <= int(def) || def < 0 {
		// vetsuite:allow panic -- programmer-error precondition, not data-dependent
		panic(fmt.Sprintf("rcbt: default label %d outside [0,%d)", def, numClasses))
	}
	return &Classifier{
		def:        def,
		classCount: make([]int, numClasses),
		numClasses: numClasses,
	}
}

// Stats summarizes a batch prediction for the Section 6.2 analyses.
type Stats struct {
	// ByClassifier[j] = test rows decided by CL_{j+1}.
	ByClassifier []int
	// Defaults = test rows that fell through to the default class.
	Defaults int
}

// Train builds an RCBT classifier from a discretized training dataset.
// It is TrainContext without cancellation.
func Train(d *dataset.Dataset, cfg Config) (*Classifier, error) {
	return TrainContext(context.Background(), d, cfg) //vet:ignore ctxflow Train is the documented context-free convenience wrapper over TrainContext
}

// TrainContext builds an RCBT classifier with cancellation: ctx
// cancellation or deadline expiry (including cfg.Timeout) stops the
// underlying mining and lower-bound search promptly and returns
// ctx.Err() with a nil Classifier. The zero Config trains with the
// paper's defaults.
func TrainContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	classCount := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		classCount[int(l)]++
	}

	perClass, err := mineClasses(ctx, d, cfg, classCount)
	if err != nil {
		return nil, err
	}

	c := &Classifier{
		classCount: classCount,
		numClasses: d.NumClasses(),
	}
	itemScores := lowerbound.DefaultItemScores(d)
	lbCache := map[*rules.Group][]*rules.Rule{}
	for j := 0; j < cfg.K; j++ {
		// The lower-bound search below can dwarf the mining time on wide
		// datasets; honor cancellation between ranks.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// RG_j: groups appearing at rank j for at least one training row.
		seen := map[*rules.Group]bool{}
		var rg []*rules.Group
		for _, res := range perClass {
			if res == nil {
				continue
			}
			for _, gs := range res.PerRow {
				if j < len(gs) && !seen[gs[j]] {
					seen[gs[j]] = true
					rg = append(rg, gs[j])
				}
			}
		}
		if len(rg) == 0 {
			continue
		}
		// Search lower bounds for the rank's uncached groups in parallel.
		var missing []*rules.Group
		for _, g := range rg {
			if _, ok := lbCache[g]; !ok {
				missing = append(missing, g)
			}
		}
		if len(missing) > 0 {
			found := lowerbound.FindAll(d, missing, lowerbound.Config{
				NL:            cfg.NL,
				MaxLen:        cfg.LBMaxLen,
				MaxCandidates: cfg.LBMaxCandidates,
				ItemScore:     itemScores,
			})
			for i, g := range missing {
				lbCache[g] = found[i]
			}
		}
		var pool []*rules.Rule
		dedup := map[string]bool{}
		for _, g := range rg {
			for _, lb := range lbCache[g] {
				key := fmt.Sprintf("%d|%v", lb.Class, lb.Antecedent)
				if dedup[key] {
					continue
				}
				dedup[key] = true
				pool = append(pool, lb)
			}
		}
		rules.SortCBA(pool)
		// Section 5.2: sub-classifiers are pruned by coverage (Step 3)
		// only, without CBA's error-minimizing truncation.
		selected, def := cba.CoverageSelect(d, pool)
		if j == 0 {
			c.def = def // default class comes from the main classifier
		}
		if len(selected) == 0 {
			continue
		}
		sub := subClassifier{rules: selected, norm: make([]float64, d.NumClasses())}
		for _, r := range selected {
			sub.norm[int(r.Class)] += score(r, classCount)
		}
		c.subs = append(c.subs, sub)
	}
	if len(c.subs) == 0 {
		// Degenerate training set: fall back to majority class.
		best, bestC := dataset.Label(0), -1
		for cls, cnt := range classCount {
			if cnt > bestC {
				best, bestC = dataset.Label(cls), cnt
			}
		}
		c.def = best
	}
	return c, nil
}

// mineClasses mines the top-k covering rule groups of every non-empty
// class, up to cfg.Workers classes at once, and returns them indexed by
// class. Each class writes only its own slot, so the result does not
// depend on the worker count. The first error cancels the classes
// still mining; a cancelled or expired ctx is returned as ctx.Err().
func mineClasses(ctx context.Context, d *dataset.Dataset, cfg Config, classCount []int) ([]*core.Result, error) {
	perClass := make([]*core.Result, d.NumClasses())
	var classes []int
	for cls, n := range classCount {
		if n > 0 {
			classes = append(classes, cls)
		}
	}
	progress := cfg.Progress
	if progress != nil {
		// One mutex keeps ProgressFunc's never-concurrent promise across
		// classes mined at once.
		var mu sync.Mutex
		progress = func(p engine.ProgressSnapshot) {
			mu.Lock()
			defer mu.Unlock()
			cfg.Progress(p)
		}
	}
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < min(max(cfg.Workers, 1), len(classes)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(classes) || mctx.Err() != nil {
					return
				}
				cls := classes[i]
				minsup := int(cfg.MinsupFrac * float64(classCount[cls]))
				if float64(minsup) < cfg.MinsupFrac*float64(classCount[cls]) {
					minsup++
				}
				mc := core.DefaultConfig(max(minsup, 1), cfg.K)
				mc.MaxNodes = cfg.MaxNodes
				mc.Progress = progress
				mc.ProgressEvery = cfg.ProgressEvery
				res, err := core.MineContext(mctx, d, dataset.Label(cls), mc)
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("rcbt: mining class %s: %w", d.ClassNames[cls], err)
						cancel()
					})
					return
				}
				perClass[cls] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return perClass, nil
}

// score is S(γ) = conf · sup / d_c.
func score(r *rules.Rule, classCount []int) float64 {
	dc := classCount[int(r.Class)]
	if dc == 0 {
		return 0
	}
	return r.Confidence * float64(r.Support) / float64(dc)
}

// NumClassifiers returns how many sub-classifiers were built (main +
// standby).
func (c *Classifier) NumClassifiers() int { return len(c.subs) }

// Default returns the default class.
func (c *Classifier) Default() dataset.Label { return c.def }

// maxStackClasses bounds the class count classified on a stack-resident
// score buffer. Gene expression datasets have 2-5 classes, so the
// one-row path never heap-allocates; wider label spaces fall back to a
// heap slice.
const maxStackClasses = 16

// Predict classifies one test row. classifierIdx is the 0-based index
// of the sub-classifier that decided (the main classifier is 0), or -1
// when the default class was used. Predict is safe for concurrent use
// and allocation-free up to maxStackClasses classes.
//
//vet:allocfree
func (c *Classifier) Predict(rowItems *bitset.Set) (label dataset.Label, classifierIdx int) {
	var buf [maxStackClasses]float64
	var scores []float64
	if c.numClasses <= maxStackClasses {
		scores = buf[:c.numClasses]
	} else {
		scores = make([]float64, c.numClasses) //vet:ignore allocfree wide label spaces exceed the stack bound; the common gene-expression path stays on buf
	}
	for j := range c.subs {
		sub := &c.subs[j]
		clear(scores)
		matched := false
		for _, r := range sub.rules {
			if r.Matches(rowItems) {
				matched = true
				scores[int(r.Class)] += score(r, c.classCount)
			}
		}
		if !matched {
			continue
		}
		best, bestScore := 0, -1.0
		for cls := range scores {
			if sub.norm[cls] > 0 {
				scores[cls] /= sub.norm[cls]
			}
			if scores[cls] > bestScore {
				best, bestScore = cls, scores[cls]
			}
		}
		return dataset.Label(best), j
	}
	return c.def, -1
}

// PredictDataset classifies every row of a discretized dataset. The
// row item set is rebuilt into one reused scratch, so the loop itself
// performs no per-row allocations.
func (c *Classifier) PredictDataset(d *dataset.Dataset) ([]dataset.Label, Stats) {
	stats := Stats{ByClassifier: make([]int, len(c.subs))}
	out := make([]dataset.Label, d.NumRows())
	rowItems := bitset.New(d.NumItems())
	for r := 0; r < d.NumRows(); r++ {
		d.RowItemSetInto(r, rowItems)
		lab, idx := c.Predict(rowItems)
		out[r] = lab
		if idx < 0 {
			stats.Defaults++
		} else {
			stats.ByClassifier[idx]++
		}
	}
	return out, stats
}
