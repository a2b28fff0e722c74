// Package topkrgs is the public API of this repository: top-k covering
// rule group mining and RCBT classification for gene expression data,
// from "Mining Top-k Covering Rule Groups for Gene Expression Data"
// (Cong, Tan, Tung, Xu — SIGMOD 2005).
//
// The typical pipeline:
//
//	dz, _ := topkrgs.Discretize(trainMatrix)            // entropy-MDL cuts
//	train, _ := dz.Transform(trainMatrix)               // rows -> itemsets
//	res, _ := topkrgs.Mine(ctx, train,
//		topkrgs.MineOptions{Minsup: 19, K: 10})         // top-10 groups/row
//	clf, _ := topkrgs.TrainRCBT(ctx, train, topkrgs.RCBTConfig{})
//	label, which := clf.Predict(test.RowItemSet(0))
//
// Every entry point that can run long takes a context.Context first and
// stops promptly with ctx.Err() on cancellation or deadline expiry.
// Option structs default their zero values to the paper's settings, so
// MineOptions{} and RCBTConfig{} "just work"; invalid options are
// reported through the exported sentinel errors (ErrBadK, ErrBadMinsup,
// ...), matchable with errors.Is.
//
// The facade re-exports the load-bearing types of the internal
// packages via aliases, so values flow between the facade and the
// internals without conversion. Specialized knobs (engine ablations,
// baselines, the experiment harness) live in the internal packages and
// the cmd/ tools.
package topkrgs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cba"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/lowerbound"
	"repro/internal/rcbt"
	"repro/internal/rules"
)

// Core data model aliases.
type (
	// Matrix is a real-valued gene expression profile.
	Matrix = dataset.Matrix
	// Dataset is a discretized table of item-set rows.
	Dataset = dataset.Dataset
	// Label identifies a class.
	Label = dataset.Label
	// Item is one gene expression interval.
	Item = dataset.Item
	// Rule is an association rule antecedent -> class.
	Rule = rules.Rule
	// Group is a rule group, identified by its upper-bound rule.
	Group = rules.Group
	// Discretizer converts matrices to datasets using entropy-MDL cuts.
	Discretizer = discretize.Discretizer
	// MiningResult holds per-row top-k covering rule groups.
	MiningResult = core.Result
	// MiningStats reports enumeration effort and abort state.
	MiningStats = engine.Stats
	// ProgressSnapshot is one periodic view of a running enumeration.
	ProgressSnapshot = engine.ProgressSnapshot
	// ProgressFunc receives ProgressSnapshots during a mine; see
	// MineOptions.Progress.
	ProgressFunc = engine.ProgressFunc
	// RCBT is a trained RCBT classifier.
	RCBT = rcbt.Classifier
	// Model bundles a trained RCBT classifier with its discretization
	// cuts and metadata — the unit cmd/rcbt saves and rcbtserved loads.
	Model = rcbt.Model
	// ModelMeta is the provenance section of a model envelope.
	ModelMeta = rcbt.Meta
	// CBA is a trained CBA classifier.
	CBA = cba.Classifier
	// RCBTConfig parameterizes RCBT training. The zero value trains
	// with the paper's defaults; see DefaultRCBTConfig.
	RCBTConfig = rcbt.Config
	// CBAConfig parameterizes CBA training.
	CBAConfig = cba.Config
)

// Validation sentinels: every option error returned by Mine and
// TrainRCBT wraps one of these, so callers can branch with errors.Is
// without string matching.
var (
	// ErrNilDataset is returned when the dataset argument is nil.
	ErrNilDataset = errors.New("topkrgs: nil dataset")
	// ErrBadClass is returned when MineOptions.Class is outside the
	// dataset's class universe.
	ErrBadClass = errors.New("topkrgs: class outside dataset universe")
	// ErrBadK is returned when MineOptions.K is negative.
	ErrBadK = errors.New("topkrgs: K must be >= 1")
	// ErrBadMinsup is returned when MineOptions.Minsup is negative.
	ErrBadMinsup = errors.New("topkrgs: Minsup must be >= 1")
	// ErrBadOption is returned for out-of-range tuning fields (negative
	// MaxNodes or Timeout).
	ErrBadOption = errors.New("topkrgs: invalid option")
)

// ReadMatrix parses the matrix text format (see cmd/datagen output).
func ReadMatrix(r io.Reader) (*Matrix, error) { return dataset.ReadMatrix(r) }

// WriteMatrix serializes a matrix in the text format.
func WriteMatrix(w io.Writer, m *Matrix) error { return dataset.WriteMatrix(w, m) }

// Discretize learns entropy-MDL cut points from a training matrix
// (Fayyad–Irani; doubles as feature selection).
func Discretize(train *Matrix) (*Discretizer, error) { return discretize.FitMatrix(train) }

// LoadDiscretizer parses cut points written by Discretizer.Write.
func LoadDiscretizer(r io.Reader) (*Discretizer, error) { return discretize.Read(r) }

// MineOptions configures Mine. The zero value mines the paper's
// defaults for class 0: top-10 covering rule groups per row at a
// minimum support of 70% of the consequent class.
type MineOptions struct {
	// Class is the consequent class the rule groups predict (default 0).
	Class Label
	// Minsup is the absolute minimum support: the number of
	// consequent-class rows an antecedent must cover. 0 derives the
	// paper's default, ceil(0.7 · |class rows|).
	Minsup int
	// K is the number of covering rule groups kept per row (0 = 10, the
	// paper's setting).
	K int
	// MaxNodes caps enumeration nodes (0 = unbounded); when exceeded
	// the run returns its partial result with Stats.Aborted set.
	MaxNodes int
	// Timeout bounds the mine (0 = no limit); it composes with any
	// deadline already on the caller's context.
	Timeout time.Duration
	// Progress, when non-nil, receives a snapshot of the enumeration
	// (node and group counts, current dynamic confidence floor, budget
	// remaining) every 4096 nodes and once at the end. Calls come from
	// the mining goroutine, one at a time; a slow hook stalls the
	// search. The hook adds no steady-state allocations to the kernel.
	Progress ProgressFunc
}

// Validate reports the first invalid field as an error wrapping one of
// the exported sentinels. It does not need the dataset; Class range
// checking happens in Mine.
func (o MineOptions) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadK, o.K)
	}
	if o.Minsup < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadMinsup, o.Minsup)
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("%w: MaxNodes %d", ErrBadOption, o.MaxNodes)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("%w: Timeout %v", ErrBadOption, o.Timeout)
	}
	return nil
}

// Mine discovers the top-k covering rule groups for every row of the
// consequent class, with the paper's full optimization set (Algorithm
// MineTopkRGS). The run stops promptly with ctx.Err() when ctx is
// cancelled or times out; opts.MaxNodes instead yields the partial
// result with Stats.Aborted set and a nil error.
func Mine(ctx context.Context, d *Dataset, opts MineOptions) (*MiningResult, error) {
	if d == nil {
		return nil, ErrNilDataset
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if int(opts.Class) < 0 || int(opts.Class) >= d.NumClasses() {
		return nil, fmt.Errorf("%w: class %d, dataset has %d classes",
			ErrBadClass, int(opts.Class), d.NumClasses())
	}
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.Minsup == 0 {
		opts.Minsup = engine.RelativeMinsup(0.7, d.ClassCount(opts.Class))
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	cfg := core.DefaultConfig(opts.Minsup, opts.K)
	cfg.MaxNodes = opts.MaxNodes
	cfg.Progress = opts.Progress
	return core.MineContext(ctx, d, opts.Class, cfg)
}

// LowerBounds returns up to nl shortest lower-bound rules of a rule
// group (algorithm FindLB).
func LowerBounds(d *Dataset, g *Group, nl int) []*Rule {
	return lowerbound.Find(d, g, lowerbound.Config{NL: nl})
}

// GroupFromItems builds the rule group generated by an itemset: closure
// antecedent, support set, and class-counted support/confidence.
func GroupFromItems(d *Dataset, items []int, cls Label) *Group {
	return rules.GroupFromItems(d, items, cls)
}

// DefaultRCBTConfig returns the paper's RCBT settings (k=10, nl=20,
// minsup = 0.7 of each class). The zero RCBTConfig behaves
// identically; this constructor remains for explicitness.
func DefaultRCBTConfig() RCBTConfig { return rcbt.DefaultConfig() }

// TrainRCBT builds an RCBT classifier (main + standby classifiers with
// score voting) from a discretized training dataset. Training stops
// promptly with ctx.Err() on cancellation or deadline expiry
// (including cfg.Timeout). The zero RCBTConfig trains the paper's
// defaults.
func TrainRCBT(ctx context.Context, d *Dataset, cfg RCBTConfig) (*RCBT, error) {
	if d == nil {
		return nil, ErrNilDataset
	}
	return rcbt.TrainContext(ctx, d, cfg)
}

// LoadRCBT reads a classifier written by (*RCBT).Save.
func LoadRCBT(r io.Reader) (*RCBT, error) { return rcbt.Load(r) }

// LoadModel reads a model envelope (classifier + discretization cuts +
// metadata) written by (*Model).Save or cmd/rcbt -save.
func LoadModel(r io.Reader) (*Model, error) { return rcbt.LoadModel(r) }

// DefaultCBAConfig returns the paper's CBA settings.
func DefaultCBAConfig() CBAConfig { return cba.DefaultConfig() }

// TrainCBA builds a CBA classifier from the top-1 covering rule groups
// of each training row (Section 5.1).
func TrainCBA(d *Dataset, cfg CBAConfig) (*CBA, error) { return cba.Train(d, cfg) }

// LoadCBA reads a classifier written by (*CBA).Save.
func LoadCBA(r io.Reader) (*CBA, error) { return cba.Load(r) }
