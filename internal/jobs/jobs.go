// Package jobs runs mining and training asynchronously: a bounded
// worker pool drains a FIFO queue of job specs, every state transition
// is journaled as a JSON record under the manager's data directory, and
// successful train jobs persist versioned rcbt.Model envelopes — so a
// restarted manager lists its predecessors' jobs and serves their
// models. The HTTP surface in internal/serve is a thin shim over this
// package; the state machine and durability rules live here (and in
// DESIGN.md §9).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
)

// Job states. queued and running are transient; succeeded, failed and
// canceled are terminal. A record read back from the journal is only
// ever transient while its manager is alive — Open marks interrupted
// jobs failed (see recover in journal.go).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// Error-cause tags journaled with a finished record. They are strings
// in the journal so the file stays self-describing; Record.Cause maps
// them back to errors.Is-compatible sentinels.
const (
	CauseCanceled    = "canceled"
	CauseDeadline    = "deadline"
	CauseBudget      = "budget"
	CauseInterrupted = "interrupted"
	CauseDrained     = "drained"
)

// Sentinel errors returned by Manager methods.
var (
	// ErrDraining rejects submissions once Drain or Close has been
	// called; the HTTP layer maps it to 503.
	ErrDraining = errors.New("jobs: manager is draining, not accepting new jobs")
	// ErrQueueFull rejects submissions past Config.QueueDepth (429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal rejects cancelling a job that already finished (409).
	ErrTerminal = errors.New("jobs: job is already in a terminal state")
	// ErrBadSpec wraps every spec validation failure (422).
	ErrBadSpec = errors.New("jobs: invalid spec")
	// ErrInterrupted is the Cause of a job found queued or running in
	// the journal at Open time: its process died mid-job.
	ErrInterrupted = errors.New("jobs: interrupted by manager restart")
	// ErrDrained is the Cause of a queued job canceled by Drain before
	// any worker picked it up: the manager shut down with it still
	// waiting. Unlike ErrInterrupted, the outcome was journaled cleanly.
	ErrDrained = errors.New("jobs: canceled by manager drain")
)

// KindMine and KindTrain are the two job kinds.
const (
	KindMine  = "mine"
	KindTrain = "train"
)

// Duration marshals as a Go duration string ("30s", "1m") so job specs
// read naturally over HTTP and in journal files.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a bare number of seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobs: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("jobs: duration must be a string like \"30s\" or a number of seconds")
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// Spec is the serializable description of one job. It is the POST
// /v1/jobs request body minus the dataset payload, and is journaled
// verbatim inside the job record.
type Spec struct {
	// Kind is "mine" or "train".
	Kind string `json:"kind"`
	// Miner names the engine-registry miner for mine jobs ("" = topk).
	Miner string `json:"miner,omitempty"`
	// Class is the consequent class name for rule-group mine jobs
	// ("" = the dataset's first class). Closed-set miners ignore it.
	Class string `json:"class,omitempty"`
	// K is the top-k width (mine: 0 = 10) or the RCBT classifier count
	// (train: 0 = 10).
	K int `json:"k,omitempty"`
	// Minsup is the absolute minimum support; 0 defers to MinsupFrac.
	Minsup int `json:"minsup,omitempty"`
	// MinsupFrac is the relative minimum support (0 = the paper's 0.7)
	// over the consequent class (rule miners, train) or all rows
	// (closed-set miners).
	MinsupFrac float64 `json:"minsupFrac,omitempty"`
	// Minconf is a static minimum-confidence floor for mine jobs
	// (0 = none): groups strictly below it are discarded, so a row's
	// top-k list may come back short.
	Minconf float64 `json:"minconf,omitempty"`
	// ReturnGroups asks a mine job to journal the discovered rule
	// groups in Result.GroupList (antecedents, supports, row sets), so
	// clients can read them from GET /v1/jobs/{id}. Off by default:
	// group lists can be large and listings only need the counts.
	ReturnGroups bool `json:"returnGroups,omitempty"`
	// NL is the lower-bound rule count for train jobs (0 = 20).
	NL int `json:"nl,omitempty"`
	// Workers applies to train jobs: how many classes are mined at once
	// (0 or 1 = one at a time). A mine job mines one class on one
	// goroutine and ignores it.
	Workers int `json:"workers,omitempty"`
	// MaxNodes caps enumeration nodes; an exhausted budget is not a
	// failure — the job succeeds with Partial set and Cause reporting
	// engine.ErrNodeBudget.
	MaxNodes int `json:"maxNodes,omitempty"`
	// Timeout bounds the job run ("0" = Config.DefaultTimeout; both
	// zero = unbounded). Expiry fails the job with a deadline cause.
	Timeout Duration `json:"timeout,omitempty"`
	// ModelName names the persisted model of a train job ("" = job id).
	// A later train job may reuse a name; the newest model wins.
	ModelName string `json:"modelName,omitempty"`
	// Dataset is provenance only at this layer: the registered dataset
	// name the HTTP layer resolved (or "" for an inline payload). With
	// a datastore it may be a pinned "name@version" reference.
	Dataset string `json:"dataset,omitempty"`
	// DatasetVersion is the datastore snapshot version the dataset was
	// resolved to (0 = unversioned: a -dataset file or inline rows).
	// Train jobs stamp it into the persisted model's Meta so operators
	// can see which snapshot a serving model was trained on.
	DatasetVersion int `json:"datasetVersion,omitempty"`
}

// Data is the resolved dataset a job runs on. The manager keeps it
// only while the job is queued or running; it is never journaled.
type Data struct {
	Dataset *dataset.Dataset
	// Discretizer, when non-nil, is bundled into the model a train job
	// persists so the model can classify raw expression rows.
	Discretizer *discretize.Discretizer
	// Name is recorded as Spec.Dataset / model provenance.
	Name string
	// Version is the datastore snapshot version the dataset came from
	// (0 = unversioned). Recorded as Spec.DatasetVersion / model Meta.
	Version int
}

// Progress is the journaled form of the engine's progress snapshots.
type Progress struct {
	Nodes        int64   `json:"nodes"`
	Groups       int64   `json:"groups"`
	MaxDepth     int     `json:"maxDepth"`
	MinconfFloor float64 `json:"minconfFloor"`
	// BudgetRemaining counts nodes left under Spec.MaxNodes (-1 when
	// unbounded).
	BudgetRemaining int64     `json:"budgetRemaining"`
	UpdatedAt       time.Time `json:"updatedAt"`
}

// MinedGroup is the wire form of one rule group in a mine job's
// Result.GroupList: plain slices and scalars so it journals and ships
// over HTTP losslessly. Confidence round-trips exactly through JSON
// (encoding/json emits the shortest representation that parses back to
// the same float64), so a client comparing confidences read from a job
// record with rules.CompareConf gets the in-process ordering.
type MinedGroup struct {
	// Items is the sorted antecedent (upper bound) in dataset item ids.
	Items []int `json:"items"`
	// Class is the consequent class index.
	Class int `json:"class"`
	// Support and Confidence are the group's global measures.
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	// Rows is the ascending row ids of the support set.
	Rows []int `json:"rows"`
}

// Summary condenses a finished job's result for listing; full mining
// output is not journaled (models are persisted separately) unless the
// spec asked for it with ReturnGroups.
type Summary struct {
	// Nodes is the enumeration node total.
	Nodes int `json:"nodes"`
	// Groups / Closed count rule groups and closed itemsets (mine).
	Groups int `json:"groups,omitempty"`
	Closed int `json:"closed,omitempty"`
	// Classifiers counts RCBT sub-classifiers (train).
	Classifiers int `json:"classifiers,omitempty"`
	// Aborted reports a node-budget cutoff (mirrors Record.Partial).
	Aborted bool `json:"aborted,omitempty"`
	// GroupList is the mined rule groups in significance order, present
	// only when Spec.ReturnGroups was set.
	GroupList []MinedGroup `json:"groupList,omitempty"`
}

// JournalSchemaVersion is the record layout written to the journal.
const JournalSchemaVersion = 1

// Record is one job's journaled state. Manager methods return defensive
// copies; mutating a returned record has no effect.
type Record struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	State  string `json:"state"`
	// Error is the human-readable failure/cancellation message; empty
	// for succeeded jobs (including budget-partial ones).
	Error string `json:"error,omitempty"`
	// ErrCause is the machine-readable cause tag (see the Cause*
	// constants); Cause maps it to an errors.Is-compatible sentinel.
	ErrCause string `json:"errCause,omitempty"`
	// Partial marks a succeeded job whose search was cut by MaxNodes:
	// the results are valid but not exhaustive.
	Partial bool `json:"partial,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	Progress *Progress `json:"progress,omitempty"`
	Result   *Summary  `json:"result,omitempty"`

	// ModelName / ModelPath locate the model envelope a succeeded train
	// job persisted.
	ModelName string `json:"modelName,omitempty"`
	ModelPath string `json:"modelPath,omitempty"`
}

// Cause maps the journaled ErrCause tag back to a sentinel, so callers
// can distinguish outcomes with errors.Is even across a restart:
// context.Canceled (canceled by request or shutdown),
// context.DeadlineExceeded (job timeout), engine.ErrNodeBudget (node
// cap; the job still succeeded with Partial set), ErrInterrupted
// (process died mid-job), or ErrDrained (queued job canceled by a
// clean shutdown). It returns nil for clean completions.
func (r *Record) Cause() error {
	switch r.ErrCause {
	case CauseCanceled:
		return context.Canceled
	case CauseDeadline:
		return context.DeadlineExceeded
	case CauseBudget:
		return engine.ErrNodeBudget
	case CauseInterrupted:
		return ErrInterrupted
	case CauseDrained:
		return ErrDrained
	}
	return nil
}

// Terminal reports whether the record reached a final state.
func (r *Record) Terminal() bool {
	switch r.State {
	case StateSucceeded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// clone deep-copies the record so callers never alias manager state.
func (r *Record) clone() *Record {
	c := *r
	if r.StartedAt != nil {
		t := *r.StartedAt
		c.StartedAt = &t
	}
	if r.FinishedAt != nil {
		t := *r.FinishedAt
		c.FinishedAt = &t
	}
	if r.Progress != nil {
		p := *r.Progress
		c.Progress = &p
	}
	if r.Result != nil {
		s := *r.Result
		if s.GroupList != nil {
			gl := make([]MinedGroup, len(s.GroupList))
			for i, g := range s.GroupList {
				g.Items = append([]int(nil), g.Items...)
				g.Rows = append([]int(nil), g.Rows...)
				gl[i] = g
			}
			s.GroupList = gl
		}
		c.Result = &s
	}
	return &c
}
