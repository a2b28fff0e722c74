package engine

// ProgressSnapshot is one periodic observation of a running
// enumeration, delivered to Enumerator.Progress. Every field is read
// from counts the search keeps anyway.
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

// ProgressFunc receives ProgressSnapshots during a run. Calls come
// from the goroutine running the enumeration, one at a time;
// implementations should store and return — a slow hook stalls the
// search. Every run that enters at least one node and is not cancelled
// ends with one final snapshot equal to its Stats.
type ProgressFunc func(ProgressSnapshot)

// DefaultProgressEvery is the node stride between snapshots: roughly
// microsecond-scale work between samples at the kernel's nodes/s, so
// the hook costs nothing measurable.
const DefaultProgressEvery = 4096

// FloorReporter is implemented by visitors whose pruning uses a
// dynamic global confidence floor worth exposing in progress snapshots
// (the top-k visitor's weakest per-row threshold). ProgressFloor is
// called on the cold sampling path only, from the goroutine running the
// enumeration.
type FloorReporter interface {
	ProgressFloor() float64
}

// emitProgress delivers the run's current snapshot to e.Progress. Cold
// path: it runs once per DefaultProgressEvery nodes and once at the
// end of the run.
func (e *Enumerator) emitProgress() {
	snap := ProgressSnapshot{
		Nodes:           int64(e.budget.Nodes()),
		Groups:          int64(e.stats.Groups),
		MaxDepth:        e.stats.MaxDepth,
		BudgetRemaining: e.budget.Remaining(),
	}
	if fr, ok := e.Visitor.(FloorReporter); ok {
		snap.MinconfFloor = fr.ProgressFloor()
	}
	e.Progress(snap)
}
