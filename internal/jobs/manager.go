package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rcbt"
)

// Config parameterizes Open. Only DataDir is required.
type Config struct {
	// DataDir roots the durable state: job records under DataDir/jobs,
	// model envelopes under DataDir/models.
	DataDir string
	// Workers is the pool size (0 = 2). Each worker runs one job at a
	// time; a train job's own Spec.Workers bounds the goroutines its
	// training uses inside that slot.
	Workers int
	// QueueDepth caps jobs waiting for a worker (0 = 64). Submissions
	// past the cap fail with ErrQueueFull.
	QueueDepth int
	// DefaultTimeout bounds jobs whose spec has no Timeout (0 = none).
	DefaultTimeout time.Duration
	// Logger receives job lifecycle lines (nil = silent).
	Logger *log.Logger
}

// job pairs a queued record id with its transient dataset.
type job struct {
	id   string
	data Data
}

// Manager owns the worker pool, queue and journal. Create with Open,
// stop with Close.
type Manager struct {
	cfg       Config
	jobsDir   string
	modelsDir string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	wg         sync.WaitGroup

	mu       sync.Mutex
	onModel  func(string, *rcbt.Model)
	recs     map[string]*Record
	order    []string // submission order (recovered records first)
	cancels  map[string]context.CancelFunc
	running  int
	queued   int
	draining bool
	closed   bool
	// terminal accounting for the metrics surface
	byState   map[string]int64
	durCount  int64
	durSum    float64
	durBucket []int64 // cumulative counts per DurationBuckets entry

	// persisted, when set, is called with every record persist is
	// about to write; tests count journal writes through it.
	persisted func(*Record)
}

// Open creates the data directories, deletes the staging files of
// crashed journal and model writes, recovers journaled records
// (marking jobs that were queued or running when their process died as
// failed with an interrupted cause), and starts the worker pool. ctx is
// the base context every job runs under: cancelling it cancels all
// queued and running jobs, exactly like Close.
func Open(ctx context.Context, cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("jobs: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	m := &Manager{
		cfg:       cfg,
		jobsDir:   filepath.Join(cfg.DataDir, "jobs"),
		modelsDir: filepath.Join(cfg.DataDir, "models"),
		queue:     make(chan *job, cfg.QueueDepth),
		recs:      map[string]*Record{},
		cancels:   map[string]context.CancelFunc{},
		byState:   map[string]int64{},
		durBucket: make([]int64, len(DurationBuckets)),
	}
	m.baseCtx, m.baseCancel = context.WithCancel(ctx)
	if err := m.recoverJournal(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.run(j)
			}
		}()
	}
	return m, nil
}

// SetOnModel sets the callback that receives every model a train job
// persists, after the journal records success, so a serving layer can
// hot-register it. The callback runs on the worker goroutine.
func (m *Manager) SetOnModel(fn func(name string, model *rcbt.Model)) {
	m.mu.Lock()
	m.onModel = fn
	m.mu.Unlock()
}

// modelNameRE keeps persisted model names path-safe.
var modelNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// validate resolves spec defaults against the dataset and reports the
// first problem wrapped in ErrBadSpec.
func (m *Manager) validate(spec *Spec, data Data) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if data.Dataset == nil {
		return bad("no dataset")
	}
	if spec.Minsup < 0 || spec.MinsupFrac < 0 || spec.MinsupFrac > 1 {
		return bad("minsup %d / minsupFrac %v out of range", spec.Minsup, spec.MinsupFrac)
	}
	if spec.Minconf < 0 || spec.Minconf > 1 {
		return bad("minconf %v out of range [0,1]", spec.Minconf)
	}
	if spec.K < 0 || spec.NL < 0 || spec.Workers < 0 || spec.MaxNodes < 0 || spec.Timeout < 0 {
		return bad("negative tuning field")
	}
	if spec.Dataset == "" {
		spec.Dataset = data.Name
	}
	if spec.DatasetVersion == 0 {
		spec.DatasetVersion = data.Version
	}
	if spec.DatasetVersion < 0 {
		return bad("datasetVersion %d is negative", spec.DatasetVersion)
	}
	switch spec.Kind {
	case KindMine:
		if spec.Miner == "" {
			spec.Miner = "topk"
		}
		if _, ok := engine.Lookup(spec.Miner); !ok {
			return bad("unknown miner %q (have %v)", spec.Miner, engine.Miners())
		}
		if spec.ModelName != "" {
			return bad("modelName is only valid for train jobs")
		}
		if _, err := classOf(data.Dataset, spec.Class); err != nil {
			return bad("%v", err)
		}
	case KindTrain:
		if spec.Miner != "" {
			return bad("miner is only valid for mine jobs (train always uses topk)")
		}
		if spec.Minconf != 0 || spec.ReturnGroups {
			return bad("minconf and returnGroups are only valid for mine jobs")
		}
		if spec.ModelName != "" && !modelNameRE.MatchString(spec.ModelName) {
			return bad("model name %q is not path-safe", spec.ModelName)
		}
		cfg := rcbt.Config{K: spec.K, NL: spec.NL, MinsupFrac: spec.MinsupFrac,
			Workers: spec.Workers, MaxNodes: spec.MaxNodes}
		if err := cfg.Validate(); err != nil {
			return bad("%v", err)
		}
	default:
		return bad("kind must be %q or %q, got %q", KindMine, KindTrain, spec.Kind)
	}
	return nil
}

// classOf resolves a class name ("" = first class) to its label.
func classOf(d *dataset.Dataset, name string) (dataset.Label, error) {
	if name == "" {
		return 0, nil
	}
	for i, n := range d.ClassNames {
		if n == name {
			return dataset.Label(i), nil
		}
	}
	return 0, fmt.Errorf("class %q not in dataset (have %v)", name, d.ClassNames)
}

// newID returns a fresh journal-unique job id.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a time-derived id rather than aborting the submission.
		return fmt.Sprintf("job-%d", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// Submit validates the spec, journals a queued record and enqueues the
// job. It returns the queued record (a copy) without waiting for a
// worker.
func (m *Manager) Submit(spec Spec, data Data) (*Record, error) {
	if err := m.validate(&spec, data); err != nil {
		return nil, err
	}
	rec := &Record{
		Schema:      JournalSchemaVersion,
		ID:          newID(),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	select {
	case m.queue <- &job{id: rec.ID, data: data}:
	default:
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.recs[rec.ID] = rec
	m.order = append(m.order, rec.ID)
	m.queued++
	snap := rec.clone()
	// Journal the queued record while still holding the lock: a worker
	// that already popped the job blocks on the same lock in run(), so
	// its running-state write cannot land before this one.
	err := m.persist(snap)
	m.mu.Unlock()
	if err != nil {
		// The worker still runs the job; the journal just misses it until
		// the next transition persists. Surface the disk problem.
		return snap, fmt.Errorf("jobs: journal write: %w", err)
	}
	m.logf("job %s queued (%s)", rec.ID, spec.Kind)
	return snap, nil
}

// Get returns a copy of one job record.
func (m *Manager) Get(id string) (*Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return rec.clone(), nil
}

// Jobs returns copies of all known records — including ones recovered
// from a previous process — in submission order.
func (m *Manager) Jobs() []*Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Record, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.recs[id].clone())
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately, a running
// job's context is cancelled and the worker records the cancellation.
// The returned record reflects the state at return time (a running
// job may still report running until its miner unwinds).
func (m *Manager) Cancel(id string) (*Record, error) {
	m.mu.Lock()
	rec, ok := m.recs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch rec.State {
	case StateQueued:
		now := time.Now().UTC()
		rec.State = StateCanceled
		rec.Error = "canceled before start"
		rec.ErrCause = CauseCanceled
		rec.FinishedAt = &now
		m.queued--
		m.noteTerminalLocked(rec)
		snap := rec.clone()
		m.mu.Unlock()
		if err := m.persist(snap); err != nil {
			return snap, fmt.Errorf("jobs: journal write: %w", err)
		}
		m.logf("job %s canceled while queued", id)
		return snap, nil
	case StateRunning:
		cancel := m.cancels[id]
		snap := rec.clone()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		m.logf("job %s cancel requested", id)
		return snap, nil
	default:
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrTerminal, id, rec.State)
	}
}

// Drain stops accepting submissions (ErrDraining) while letting
// running jobs finish, and cancels still-queued jobs with a drained
// cause — journaled immediately, so a process that dies between Drain
// and Close never leaves them "queued" on disk for restart recovery to
// re-report as interrupted. It is the first phase of a graceful
// shutdown; Close cancels what is still running.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	now := time.Now().UTC()
	var snaps []*Record
	for _, id := range m.order {
		rec := m.recs[id]
		if rec.State != StateQueued {
			continue
		}
		rec.State = StateCanceled
		rec.Error = "canceled by drain"
		rec.ErrCause = CauseDrained
		rec.FinishedAt = &now
		m.queued--
		m.noteTerminalLocked(rec)
		snaps = append(snaps, rec.clone())
	}
	m.mu.Unlock()
	// A worker that pops a drained job sees its terminal state and
	// skips it (run's queued-state guard), so journaling after the
	// unlock races with nothing.
	for _, snap := range snaps {
		if err := m.persist(snap); err != nil {
			m.logf("job %s: journal write: %v", snap.ID, err)
		}
		m.logf("job %s canceled by drain", snap.ID)
	}
}

// Close drains, cancels every queued and running job, and waits for the
// workers to journal their final states. It is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	m.draining = true
	close(m.queue)
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	return nil
}

// run executes one dequeued job on a worker goroutine.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	rec := m.recs[j.id]
	if rec.State != StateQueued { // canceled while waiting
		m.mu.Unlock()
		return
	}
	m.queued--
	if m.baseCtx.Err() != nil { // Close won the race: never started
		m.finishLocked(rec, StateCanceled, "canceled by shutdown before start", CauseCanceled)
		return
	}
	now := time.Now().UTC()
	rec.State = StateRunning
	rec.StartedAt = &now
	m.running++
	ctx, cancel := context.WithCancel(m.baseCtx)
	m.cancels[j.id] = cancel
	timeout := time.Duration(rec.Spec.Timeout)
	if timeout == 0 {
		timeout = m.cfg.DefaultTimeout
	}
	spec := rec.Spec
	snap := rec.clone()
	m.mu.Unlock()
	defer cancel()

	if err := m.persist(snap); err != nil {
		m.logf("job %s: journal write: %v", j.id, err)
	}
	// The journal was just written: the first progress flush waits a
	// full interval, so a job that ends inside it is journaled as
	// queued, running and terminal only.
	lastFlush := time.Now()
	m.logf("job %s running (%s)", j.id, spec.Kind)

	runCtx := ctx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	var (
		sum        *Summary
		modelName  string
		modelPath  string
		err        error
		progressFn engine.ProgressFunc
	)
	// The hook runs on mining goroutines; a mine job's search calls it
	// from one goroutine, a train's class searches through rcbt's one
	// mutex, and the manager lock protects the record. The
	// journal flush is throttled so progress costs one small file write
	// every few hundred milliseconds at most.
	progressFn = func(s engine.ProgressSnapshot) {
		now := time.Now().UTC()
		m.mu.Lock()
		rec.Progress = &Progress{
			Nodes:           s.Nodes,
			Groups:          s.Groups,
			MaxDepth:        s.MaxDepth,
			MinconfFloor:    s.MinconfFloor,
			BudgetRemaining: s.BudgetRemaining,
			UpdatedAt:       now,
		}
		var flush *Record
		if now.Sub(lastFlush) >= 200*time.Millisecond {
			lastFlush = now
			flush = rec.clone()
		}
		m.mu.Unlock()
		if flush != nil {
			if werr := m.persist(flush); werr != nil {
				m.logf("job %s: journal write: %v", j.id, werr)
			}
		}
	}

	switch spec.Kind {
	case KindMine:
		sum, err = m.runMine(runCtx, spec, j.data, progressFn)
	case KindTrain:
		sum, modelName, modelPath, err = m.runTrain(runCtx, j.id, spec, j.data, progressFn)
	default: // unreachable: validate rejected it
		err = fmt.Errorf("%w: kind %q", ErrBadSpec, spec.Kind)
	}

	m.mu.Lock()
	m.running--
	delete(m.cancels, j.id)
	switch {
	case err == nil:
		rec.Result = sum
		rec.ModelName = modelName
		rec.ModelPath = modelPath
		if sum != nil && sum.Aborted {
			// Node budget exhausted: a successful partial result, with the
			// cause preserved so Cause() reports engine.ErrNodeBudget.
			rec.Partial = true
			rec.ErrCause = CauseBudget
		}
		m.finishLocked(rec, StateSucceeded, "", rec.ErrCause)
	case errors.Is(err, context.DeadlineExceeded):
		m.finishLocked(rec, StateFailed, fmt.Sprintf("job timeout (%v) exceeded", timeout), CauseDeadline)
	case errors.Is(err, context.Canceled):
		m.finishLocked(rec, StateCanceled, "canceled: "+err.Error(), CauseCanceled)
	default:
		m.finishLocked(rec, StateFailed, err.Error(), "")
	}
}

// finishLocked moves rec to a terminal state, updates the metric
// counters, and journals the final record. Caller holds m.mu; the lock
// is released before the journal write.
func (m *Manager) finishLocked(rec *Record, state, errMsg, cause string) {
	now := time.Now().UTC()
	rec.State = state
	rec.Error = errMsg
	rec.ErrCause = cause
	rec.FinishedAt = &now
	m.noteTerminalLocked(rec)
	snap := rec.clone()
	m.mu.Unlock()
	if err := m.persist(snap); err != nil {
		m.logf("job %s: journal write: %v", rec.ID, err)
	}
	m.logf("job %s %s%s", rec.ID, state, causeSuffix(snap))
}

func causeSuffix(r *Record) string {
	if r.Error != "" {
		return ": " + r.Error
	}
	if r.Partial {
		return " (partial: node budget)"
	}
	return ""
}

// noteTerminalLocked folds a terminal transition into the metric
// counters. Caller holds m.mu.
func (m *Manager) noteTerminalLocked(rec *Record) {
	m.byState[rec.State]++
	if rec.StartedAt == nil || rec.FinishedAt == nil {
		return
	}
	secs := rec.FinishedAt.Sub(*rec.StartedAt).Seconds()
	m.durCount++
	m.durSum += secs
	for i, le := range DurationBuckets {
		if secs <= le {
			m.durBucket[i]++
		}
	}
}

// runMine dispatches a mine job through the engine registry.
func (m *Manager) runMine(ctx context.Context, spec Spec, data Data, progress engine.ProgressFunc) (*Summary, error) {
	miner, ok := engine.Lookup(spec.Miner)
	if !ok {
		return nil, fmt.Errorf("%w: unknown miner %q", ErrBadSpec, spec.Miner)
	}
	d := data.Dataset
	cls, err := classOf(d, spec.Class)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	k := spec.K
	if k == 0 {
		k = 10
	}
	opts := engine.Options{
		Class:    cls,
		K:        k,
		Minsup:   resolveMinsup(spec, d, cls),
		Minconf:  spec.Minconf,
		MaxNodes: spec.MaxNodes,
		Progress: progress,
	}
	res, stats, err := miner.Mine(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	sum := &Summary{
		Nodes:   stats.Nodes,
		Groups:  len(res.Groups),
		Closed:  len(res.Closed),
		Aborted: stats.Aborted,
	}
	if spec.ReturnGroups {
		sum.GroupList = make([]MinedGroup, len(res.Groups))
		for i, g := range res.Groups {
			mg := MinedGroup{
				Items:      append([]int(nil), g.Antecedent...),
				Class:      int(g.Class),
				Support:    g.Support,
				Confidence: g.Confidence,
			}
			if g.Rows != nil {
				mg.Rows = g.Rows.Indices()
			}
			sum.GroupList[i] = mg
		}
	}
	return sum, nil
}

// resolveMinsup turns the spec's absolute/relative support into the
// absolute count the miner wants: relative to the consequent class for
// rule-group miners, to all rows for the closed-set miners.
func resolveMinsup(spec Spec, d *dataset.Dataset, cls dataset.Label) int {
	if spec.Minsup > 0 {
		return spec.Minsup
	}
	frac := spec.MinsupFrac
	if frac == 0 {
		frac = 0.7
	}
	base := d.ClassCount(cls)
	switch spec.Miner {
	case "carpenter", "charm", "closet":
		base = d.NumRows()
	}
	return engine.RelativeMinsup(frac, base)
}

// runTrain trains an RCBT classifier and persists it as a versioned
// model envelope under DataDir/models, then hands it to the SetOnModel
// callback.
func (m *Manager) runTrain(ctx context.Context, id string, spec Spec, data Data, progress engine.ProgressFunc) (*Summary, string, string, error) {
	d := data.Dataset
	cfg := rcbt.Config{
		K:          spec.K,
		NL:         spec.NL,
		MinsupFrac: spec.MinsupFrac,
		Workers:    spec.Workers,
		MaxNodes:   spec.MaxNodes,
		Progress:   progress,
	}
	cls, err := rcbt.TrainContext(ctx, d, cfg)
	if err != nil {
		return nil, "", "", err
	}
	name := spec.ModelName
	if name == "" {
		name = id
	}
	model := &rcbt.Model{
		Classifier:  cls,
		Discretizer: data.Discretizer,
		ClassNames:  d.ClassNames,
		NumItems:    d.NumItems(),
		Meta: rcbt.Meta{
			Dataset:        spec.Dataset,
			DatasetVersion: spec.DatasetVersion,
			TrainRows:      d.NumRows(),
			CreatedAt:      time.Now().UTC().Format(time.RFC3339),
		},
	}
	path := filepath.Join(m.modelsDir, name+".json")
	if err := model.SaveFile(path); err != nil {
		return nil, "", "", err
	}
	m.mu.Lock()
	onModel := m.onModel
	m.mu.Unlock()
	if onModel != nil {
		onModel(name, model)
	}
	return &Summary{Classifiers: cls.NumClassifiers()}, name, path, nil
}

// sortRecovered orders recovered records by submission time so Jobs()
// lists history before this process's submissions.
func sortRecovered(recs []*Record) {
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].SubmittedAt.Equal(recs[j].SubmittedAt) {
			return recs[i].SubmittedAt.Before(recs[j].SubmittedAt)
		}
		return recs[i].ID < recs[j].ID
	})
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
