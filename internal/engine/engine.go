// Package engine is the unified mining-engine layer: the depth-first
// row enumeration skeleton shared by MineTopkRGS (internal/core), the
// FARMER baseline (internal/farmer) and CARPENTER (internal/carpenter);
// the budget/deadline/cancellation machinery shared by every miner; and
// the Miner interface all six miners (core, farmer, carpenter, charm,
// closet, hybrid) register behind, so harness and CLI layers dispatch
// by name instead of hard-wiring per-package entry points.
//
// The enumeration works on a row-reordered view of the dataset: rows
// 0..NumPos-1 carry the specified consequent class ("positive"), the
// rest are negative — the class dominant order of Definition 3.1.
// Item supports are bitsets over these reordered row ids, so closure is
// a word-wise intersection and projection is a membership filter.
package engine

import (
	"context"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/rules"
)

// Stats counts the work performed by one mining run.
type Stats struct {
	Nodes            int // enumeration nodes entered
	BackwardPruned   int // nodes cut by the closedness check (Step 7)
	PrunedBeforeScan int // nodes cut by loose bounds (Step 9)
	PrunedAfterScan  int // nodes cut by tight bounds (Step 11)
	Groups           int // OnGroup invocations
	MaxDepth         int
	Aborted          bool // true when MaxNodes stopped the search early
}

// Threshold is the dynamic pruning threshold computed at a node (Step
// 8): the weakest (confidence, support) pair a subtree must beat. The
// engine holds it per node, so recursion into children — which compute
// their own, tighter thresholds — cannot leak into sibling checks.
type Threshold struct {
	Conf float64
	Sup  int
}

// ClosedItemset is one closed-itemset miner result: a closed itemset
// and its support over all rows. The closed-set miners (carpenter,
// charm, closet) alias this type so their outputs are interchangeable.
type ClosedItemset struct {
	Items   []int
	Support int
}

// Options is the miner-independent configuration of the Miner
// interface. Each miner reads the fields that apply to it and ignores
// the rest (a closed-set miner ignores K and Class).
type Options struct {
	// Class is the consequent class for rule-group miners.
	Class dataset.Label
	// K is the number of covering rule groups kept per row (top-k
	// miners).
	K int
	// Minsup is the absolute minimum support: consequent-class rows for
	// rule-group miners, all rows for closed-set miners.
	Minsup int
	// Minconf is the static minimum confidence; 0 disables. Farmer
	// filters rules below it; the top-k miner prunes groups strictly
	// below it, so a row's list may hold fewer than K groups.
	Minconf float64
	// MinChi is the static minimum chi-square (farmer); 0 disables.
	MinChi float64
	// MaxNodes, when positive, aborts the search after that many work
	// units; Stats.Aborted reports the cutoff and partial results are
	// returned.
	MaxNodes int
	// Variant selects a miner-specific engine implementation (farmer:
	// "bitset", "prefix", "naive"; empty = the miner's default).
	Variant string
	// Progress, when non-nil, receives periodic ProgressSnapshots from
	// the enumeration (see ProgressFunc). Honored by the miners built on
	// the shared row-enumeration kernel (topk, carpenter, and farmer's
	// bitset engine); other miners ignore it.
	Progress ProgressFunc
	// ProgressEvery is the node stride between snapshots
	// (0 = DefaultProgressEvery).
	ProgressEvery int
	// MaxPartitionRows caps hybrid-miner partitions (0 = no cap).
	MaxPartitionRows int

	// Ablation switches, honored by the topk miner.
	DisableSeedInit        bool
	DisableTopKPruning     bool
	DisableBackwardPruning bool
	DisableRowSort         bool
	DisableDynamicMinsup   bool
}

// Result is the miner-independent output shape. Rule-group miners fill
// Groups (and PerRow for top-k miners); closed-set miners fill Closed.
type Result struct {
	// PerRow maps each consequent-class row (original row id) to its
	// top-k covering rule groups, most significant first.
	PerRow map[int][]*rules.Group
	// Groups is the deduplicated union of discovered rule groups, sorted
	// by significance.
	Groups []*rules.Group
	// Closed holds closed-itemset miner output.
	Closed []ClosedItemset
	// NumFrequentItems is the item count after the frequency filter.
	NumFrequentItems int
	// Partitions counts hybrid-miner column partitions.
	Partitions int
}

// Miner is the single interface every miner in this repository
// implements. Mine must honor ctx cancellation and deadline (returning
// ctx.Err() promptly, with a nil Result) and Options.MaxNodes (setting
// Stats.Aborted and returning the partial Result with a nil error).
type Miner interface {
	// Name is the registry key ("topk", "farmer", "carpenter", "charm",
	// "closet", "hybrid").
	Name() string
	Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Result, Stats, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Miner{}
)

// Register adds a miner to the registry under m.Name(). Miners register
// themselves from package init; a later registration under the same
// name wins.
func Register(m Miner) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[m.Name()] = m
}

// Lookup returns the registered miner with the given name.
func Lookup(name string) (Miner, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := registry[name]
	return m, ok
}

// Miners returns the registered miner names, sorted.
func Miners() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
