package engine

import (
	"sync"
	"sync/atomic"
)

// ProgressSnapshot is one periodic observation of a running
// enumeration, delivered to Options.Progress. All fields are sampled
// cheaply from counters the hot loop maintains anyway.
type ProgressSnapshot struct {
	// Nodes is the number of enumeration nodes entered so far.
	Nodes int64
	// Groups is the number of OnGroup events so far.
	Groups int64
	// MaxDepth is the deepest enumeration level reached so far.
	MaxDepth int
	// MinconfFloor is the current dynamic minimum-confidence floor of
	// the search, when the visitor exposes one (see FloorReporter);
	// 0 for miners without a dynamic confidence threshold.
	MinconfFloor float64
	// BudgetRemaining is the number of nodes left before a MaxNodes
	// abort, or -1 when the run is unbounded.
	BudgetRemaining int64
}

// ProgressFunc receives ProgressSnapshots during a run. Calls are
// serialized (never concurrent with each other) and come from the
// goroutine running the enumeration; implementations should store and
// return — a slow hook stalls the search. Every run that enters at
// least one node delivers at least one final snapshot.
type ProgressFunc func(ProgressSnapshot)

// DefaultProgressEvery is the node sampling stride when
// Options.ProgressEvery is zero: roughly microsecond-scale work between
// samples at the kernel's nodes/s, so the hook costs nothing
// measurable.
const DefaultProgressEvery = 4096

// FloorReporter is implemented by visitors whose pruning uses a
// dynamic global confidence floor worth exposing in progress snapshots
// (the top-k visitor's weakest per-row threshold). ProgressFloor is
// called on the cold sampling path only, from the goroutine running the
// enumeration, so it may read visitor state without synchronization.
type FloorReporter interface {
	ProgressFloor() float64
}

// progressSampler turns per-node ticks into periodic ProgressFunc
// calls. It is safe for concurrent use: ticks and group counts are
// atomic, and emission is mutex-serialized so the hook never observes
// concurrent calls. The sampler is retained on the Enumerator and
// re-armed per Run, so steady-state runs allocate nothing.
type progressSampler struct {
	fn     ProgressFunc
	every  int64
	budget *Budget
	floor  FloorReporter // nil when the visitor reports no floor

	ticks  atomic.Int64
	groups atomic.Int64
	depth  atomic.Int64

	mu sync.Mutex // serializes emissions
}

// arm readies the sampler for a new run.
func (p *progressSampler) arm(fn ProgressFunc, every int64, budget *Budget, floor FloorReporter) {
	p.fn = fn
	p.every = every
	p.budget = budget
	p.floor = floor
	p.ticks.Store(0)
	p.groups.Store(0)
	p.depth.Store(0)
}

// tick charges one node and emits a snapshot every `every` ticks.
// localDepth is the search's deepest level so far; the sampler
// folds it into the global maximum at emission time only, keeping the
// per-node cost to one atomic add and a comparison.
//
//vet:allocfree
func (p *progressSampler) tick(localDepth int) {
	if p.ticks.Add(1)%p.every != 0 {
		return
	}
	p.emit(localDepth)
}

// onGroup counts one OnGroup event (rare relative to nodes).
//
//vet:allocfree
func (p *progressSampler) onGroup() { p.groups.Add(1) }

// emit delivers one snapshot. Cold path: runs once per sampling stride
// and once at the end of the run.
func (p *progressSampler) emit(localDepth int) {
	for {
		d := p.depth.Load()
		if int64(localDepth) <= d || p.depth.CompareAndSwap(d, int64(localDepth)) {
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := ProgressSnapshot{
		Nodes:           int64(p.budget.Nodes()),
		Groups:          p.groups.Load(),
		MaxDepth:        int(p.depth.Load()),
		BudgetRemaining: p.budget.Remaining(),
	}
	if p.floor != nil {
		snap.MinconfFloor = p.floor.ProgressFloor()
	}
	p.fn(snap)
}
