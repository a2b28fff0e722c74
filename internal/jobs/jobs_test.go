package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rcbt"

	_ "repro/internal/carpenter" // register the miners jobs dispatch to
	_ "repro/internal/core"
)

// openTest returns a manager over a fresh temp data dir, closed with
// the test.
func openTest(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// denseDataset builds a dataset whose closed-itemset tree is
// astronomically large: carpenter at minsup 1 will not finish within
// any test timeout, which is exactly what the cancellation, deadline
// and budget tests need.
func denseDataset(rows, items int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(7))
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < items; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: fmt.Sprintf("g%d", i), Lo: 0, Hi: 1})
	}
	for r := 0; r < rows; r++ {
		var row []int
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.6 {
				row = append(row, i)
			}
		}
		if len(row) == 0 {
			row = append(row, r%items)
		}
		d.Rows = append(d.Rows, row)
		d.Labels = append(d.Labels, dataset.Label(r%2))
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// slowSpec is a mine job that cannot finish on its own.
func slowSpec() Spec { return Spec{Kind: KindMine, Miner: "carpenter", Minsup: 1} }

func slowData() Data {
	return Data{Dataset: denseDataset(52, 72), Name: "dense"}
}

// waitTerminal polls until the job leaves the transient states.
func waitTerminal(t *testing.T, m *Manager, id string) *Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Terminal() {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in 30s", id)
	return nil
}

// waitRunning polls until the job has actually started.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.State {
		case StateRunning:
			return
		case StateQueued:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("job %s reached %s before running", id, rec.State)
		}
	}
	t.Fatalf("job %s never started", id)
}

func TestSubmitValidation(t *testing.T) {
	m := openTest(t, Config{})
	d, _ := dataset.RunningExample()
	data := Data{Dataset: d, Name: "running-example"}
	cases := []struct {
		name string
		spec Spec
		data Data
	}{
		{"bad kind", Spec{Kind: "optimize"}, data},
		{"no dataset", Spec{Kind: KindMine}, Data{}},
		{"unknown miner", Spec{Kind: KindMine, Miner: "apriori"}, data},
		{"unknown class", Spec{Kind: KindMine, Class: "tumor"}, data},
		{"model name on mine", Spec{Kind: KindMine, ModelName: "m"}, data},
		{"miner on train", Spec{Kind: KindTrain, Miner: "topk"}, data},
		{"unsafe model name", Spec{Kind: KindTrain, ModelName: "../escape"}, data},
		{"negative tuning", Spec{Kind: KindMine, K: -1}, data},
		{"bad minsup frac", Spec{Kind: KindMine, MinsupFrac: 1.5}, data},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.spec, tc.data); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", tc.name, err)
		}
	}
}

// TestConcurrentMineJobs is the pool determinism check: N submissions
// through a pool of 2 must all succeed with identical summaries, and
// each record must carry a final progress snapshot.
func TestConcurrentMineJobs(t *testing.T) {
	m := openTest(t, Config{Workers: 2})
	d, _ := dataset.RunningExample()
	data := Data{Dataset: d, Name: "running-example"}
	spec := Spec{Kind: KindMine, Class: "C", K: 2, Minsup: 2}

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		rec, err := m.Submit(spec, data)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	var first *Summary
	for _, id := range ids {
		rec := waitTerminal(t, m, id)
		if rec.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", id, rec.State, rec.Error)
		}
		if rec.Result == nil || rec.Result.Groups == 0 {
			t.Fatalf("job %s: empty result %+v", id, rec.Result)
		}
		if rec.Progress == nil || rec.Progress.Nodes == 0 {
			t.Fatalf("job %s: no progress snapshot", id)
		}
		if rec.StartedAt == nil || rec.FinishedAt == nil {
			t.Fatalf("job %s: missing timestamps", id)
		}
		if first == nil {
			first = rec.Result
		} else if !reflect.DeepEqual(rec.Result, first) {
			t.Fatalf("nondeterministic result: %+v vs %+v", rec.Result, first)
		}
	}
	mm := m.Metrics()
	if mm.ByState[StateSucceeded] != n {
		t.Errorf("succeeded counter = %d, want %d", mm.ByState[StateSucceeded], n)
	}
	if mm.DurationCount != n {
		t.Errorf("duration count = %d, want %d", mm.DurationCount, n)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := openTest(t, Config{Workers: 1})
	rec, err := m.Submit(slowSpec(), slowData())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, rec.ID)
	if _, err := m.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, rec.ID)
	if got.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", got.State, got.Error)
	}
	if got.Error == "" {
		t.Error("canceled job has empty error message")
	}
	if !errors.Is(got.Cause(), context.Canceled) {
		t.Errorf("Cause() = %v, want context.Canceled", got.Cause())
	}
	if _, err := m.Cancel(rec.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second cancel: got %v, want ErrTerminal", err)
	}
}

func TestJobDeadline(t *testing.T) {
	m := openTest(t, Config{Workers: 1})
	spec := slowSpec()
	spec.Timeout = Duration(60 * time.Millisecond)
	rec, err := m.Submit(spec, slowData())
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, rec.ID)
	if got.State != StateFailed {
		t.Fatalf("state = %s, want failed", got.State)
	}
	if got.Error == "" {
		t.Error("deadline failure has empty error message")
	}
	if !errors.Is(got.Cause(), context.DeadlineExceeded) {
		t.Errorf("Cause() = %v, want context.DeadlineExceeded", got.Cause())
	}
}

// TestBudgetAbortDistinguishable is the regression test for the cause
// taxonomy: a node-budget abort is a successful partial run whose
// journaled cause is engine.ErrNodeBudget — not confusable, via
// errors.Is, with a context cancellation.
func TestBudgetAbortDistinguishable(t *testing.T) {
	m := openTest(t, Config{Workers: 2})
	spec := slowSpec()
	spec.MaxNodes = 500
	budgeted, err := m.Submit(spec, slowData())
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := m.Submit(slowSpec(), slowData())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, canceled.ID)
	if _, err := m.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}

	b := waitTerminal(t, m, budgeted.ID)
	if b.State != StateSucceeded || !b.Partial {
		t.Fatalf("budgeted job: state=%s partial=%v (%s), want succeeded+partial", b.State, b.Partial, b.Error)
	}
	if b.Result == nil || !b.Result.Aborted {
		t.Fatalf("budgeted job: result %+v, want Aborted", b.Result)
	}
	if !errors.Is(b.Cause(), engine.ErrNodeBudget) {
		t.Errorf("budgeted Cause() = %v, want engine.ErrNodeBudget", b.Cause())
	}
	if errors.Is(b.Cause(), context.Canceled) {
		t.Error("budget abort is reported as a cancellation")
	}

	c := waitTerminal(t, m, canceled.ID)
	if !errors.Is(c.Cause(), context.Canceled) {
		t.Errorf("canceled Cause() = %v, want context.Canceled", c.Cause())
	}
	if errors.Is(c.Cause(), engine.ErrNodeBudget) {
		t.Error("cancellation is reported as a budget abort")
	}
}

func TestQueueCapAndDrain(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Config{DataDir: dir, Workers: 1, QueueDepth: 1})
	running, err := m.Submit(slowSpec(), slowData())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)
	queued, err := m.Submit(slowSpec(), slowData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(slowSpec(), slowData()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit: got %v, want ErrQueueFull", err)
	}
	if mm := m.Metrics(); mm.QueueDepth != 1 || mm.Running != 1 {
		t.Errorf("metrics queue=%d running=%d, want 1/1", mm.QueueDepth, mm.Running)
	}

	m.Drain()
	if _, err := m.Submit(slowSpec(), slowData()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", err)
	}

	// Drain cancels the queued job on the spot — terminal in memory AND
	// in its journal, so a crash between Drain and Close cannot leave a
	// "queued" record for restart recovery to call interrupted. The
	// running job is untouched.
	got, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.StartedAt != nil {
		t.Fatalf("drained job: state=%s started=%v, want canceled/never started", got.State, got.StartedAt)
	}
	if !errors.Is(got.Cause(), ErrDrained) {
		t.Errorf("drained Cause() = %v, want ErrDrained", got.Cause())
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", queued.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Record
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateCanceled || onDisk.ErrCause != CauseDrained {
		t.Fatalf("journal after drain: state=%s cause=%s, want canceled/drained", onDisk.State, onDisk.ErrCause)
	}
	if r, err := m.Get(running.ID); err != nil || r.State != StateRunning {
		t.Fatalf("running job after drain: %v %v, want still running", r, err)
	}

	// Cancelling the drained job again is a terminal-state conflict.
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel drained job: got %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, running.ID)
}

// TestCloseCancelsRunning is the shutdown-ordering contract at the jobs
// layer: Close stops in-flight work and journals it canceled before
// returning.
func TestCloseCancelsRunning(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Config{DataDir: dir, Workers: 1})
	rec, err := m.Submit(slowSpec(), slowData())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, rec.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", rec.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var journaled Record
	if err := json.Unmarshal(data, &journaled); err != nil {
		t.Fatal(err)
	}
	if journaled.State != StateCanceled {
		t.Fatalf("journal after Close: state=%s (%s), want canceled", journaled.State, journaled.Error)
	}
	if !errors.Is(journaled.Cause(), context.Canceled) {
		t.Errorf("journaled Cause() = %v, want context.Canceled", journaled.Cause())
	}
}

func TestGetUnknown(t *testing.T) {
	m := openTest(t, Config{})
	if _, err := m.Get("job-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("job-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestTrainJobPersistsModel(t *testing.T) {
	var hotName string
	var hotModel *rcbt.Model
	m := openTest(t, Config{})
	m.SetOnModel(func(name string, mod *rcbt.Model) {
		hotName, hotModel = name, mod
	})
	d, _ := dataset.RunningExample()
	spec := Spec{Kind: KindTrain, ModelName: "example", K: 2, NL: 3, MinsupFrac: 0.5}
	rec, err := m.Submit(spec, Data{Dataset: d, Name: "running-example"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, rec.ID)
	if got.State != StateSucceeded {
		t.Fatalf("train job: %s (%s)", got.State, got.Error)
	}
	if got.ModelName != "example" || got.ModelPath == "" {
		t.Fatalf("model not recorded: %+v", got)
	}
	if hotName != "example" || hotModel == nil {
		t.Fatalf("model callback not called: %q %v", hotName, hotModel)
	}
	if got.Result == nil || got.Result.Classifiers == 0 {
		t.Fatalf("train summary %+v", got.Result)
	}
	var saved bytes.Buffer
	if err := hotModel.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(got.ModelPath); err != nil || !bytes.Equal(onDisk, saved.Bytes()) {
		t.Fatalf("model file differs from Model.Save's output (read error %v)", err)
	}

	f, err := os.Open(got.ModelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := rcbt.LoadModel(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta.Dataset != "running-example" || loaded.Meta.TrainRows != d.NumRows() {
		t.Errorf("model meta %+v", loaded.Meta)
	}

	// Label parity with an in-process training run on the same config.
	ref, err := rcbt.Train(d, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.PredictDataset(d)
	have, _ := loaded.Classifier.PredictDataset(d)
	for r := range want {
		if want[r] != have[r] {
			t.Fatalf("row %d: job model predicts %d, in-process predicts %d", r, have[r], want[r])
		}
	}
}

// TestQuickTrainJobJournalsThreeTimes checks that the progress flush
// throttle starts at the running write: a train job that ends inside
// the 200 ms flush interval is journaled as queued, running and
// terminal, with no progress rewrite between the last two.
func TestQuickTrainJobJournalsThreeTimes(t *testing.T) {
	m := openTest(t, Config{})
	var mu sync.Mutex
	var states []string
	m.persisted = func(rec *Record) {
		mu.Lock()
		defer mu.Unlock()
		states = append(states, rec.State)
	}
	d, _ := dataset.RunningExample()
	spec := Spec{Kind: KindTrain, ModelName: "quick", K: 2, NL: 3, MinsupFrac: 0.5}
	rec, err := m.Submit(spec, Data{Dataset: d, Name: "running-example"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, rec.ID)
	if got.State != StateSucceeded {
		t.Fatalf("train job: %s (%s)", got.State, got.Error)
	}
	m.Close() // the terminal write lands after the state change; wait for it
	if ran := got.FinishedAt.Sub(*got.StartedAt); ran >= 200*time.Millisecond {
		t.Skipf("the job ran %v, past the flush interval", ran)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{StateQueued, StateRunning, StateSucceeded}; !reflect.DeepEqual(states, want) {
		t.Fatalf("journal writes %v, want %v", states, want)
	}
}

// TestSaveModelConcurrent saves one model name from two goroutines at
// once, as two train jobs with the same modelName do (the pool runs two
// jobs by default, and an auto-refresh does not wait for a running
// train). Every save must succeed, the file must hold Model.Save's
// bytes, and no staging file may be left behind.
func TestSaveModelConcurrent(t *testing.T) {
	m := openTest(t, Config{})
	d, _ := dataset.RunningExample()
	cls, err := rcbt.Train(d, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	model := &rcbt.Model{Classifier: cls, ClassNames: d.ClassNames, NumItems: d.NumItems()}
	var want bytes.Buffer
	if err := model.Save(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(m.modelsDir, "shared.json")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := model.SaveFile(path); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("model file is not Model.Save's output:\n%s", got)
	}
	entries, err := os.ReadDir(m.modelsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("models dir holds %d entries, want only shared.json: %v", len(entries), entries)
	}
}

// TestRestartDurability is the crash-restart satellite: a fresh
// manager over the same data dir lists its predecessor's jobs, serves
// its models, and reports a mid-flight job as failed, never running.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	m1 := openTest(t, Config{DataDir: dir})
	d, _ := dataset.RunningExample()
	data := Data{Dataset: d, Name: "running-example"}

	train, err := m1.Submit(Spec{Kind: KindTrain, ModelName: "surviving", K: 2, NL: 3, MinsupFrac: 0.5}, data)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := m1.Submit(Spec{Kind: KindMine, Class: "C", Minsup: 2}, data)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, train.ID)
	waitTerminal(t, m1, mine.ID)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: a journal record stuck in running, as left by a
	// process that died without unwinding.
	now := time.Now().UTC()
	crashed := Record{
		Schema:      JournalSchemaVersion,
		ID:          "job-crashed",
		Spec:        Spec{Kind: KindMine},
		State:       StateRunning,
		SubmittedAt: now.Add(-time.Minute),
		StartedAt:   &now,
	}
	raw, err := json.MarshalIndent(&crashed, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", crashed.ID+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openTest(t, Config{DataDir: dir})
	recs := m2.Jobs()
	if len(recs) != 3 {
		t.Fatalf("restarted manager lists %d jobs, want 3", len(recs))
	}
	byID := map[string]*Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if r := byID[train.ID]; r == nil || r.State != StateSucceeded || r.ModelPath == "" {
		t.Fatalf("train record after restart: %+v", r)
	}
	if r := byID[mine.ID]; r == nil || r.State != StateSucceeded {
		t.Fatalf("mine record after restart: %+v", r)
	}
	r := byID["job-crashed"]
	if r == nil || r.State != StateFailed {
		t.Fatalf("crashed record after restart: %+v", r)
	}
	if r.Error == "" || !errors.Is(r.Cause(), ErrInterrupted) {
		t.Fatalf("crashed record cause: error=%q cause=%v", r.Error, r.Cause())
	}
	if r.FinishedAt == nil {
		t.Error("crashed record has no finish time")
	}

	// The persisted model is still loadable through the recovered path.
	f, err := os.Open(byID[train.ID].ModelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := rcbt.LoadModel(f); err != nil {
		t.Fatal(err)
	}
	if got := m2.Metrics(); got.ByState[StateSucceeded] != 2 || got.ByState[StateFailed] != 1 {
		t.Errorf("restart metrics %+v", got.ByState)
	}
}

func TestDurationJSON(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"kind":"mine","timeout":"1m30s"}`), &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Timeout) != 90*time.Second {
		t.Fatalf("timeout = %v", time.Duration(s.Timeout))
	}
	if err := json.Unmarshal([]byte(`{"kind":"mine","timeout":2.5}`), &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Timeout) != 2500*time.Millisecond {
		t.Fatalf("numeric timeout = %v", time.Duration(s.Timeout))
	}
	out, err := json.Marshal(Spec{Kind: "mine", Timeout: Duration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"kind":"mine","timeout":"1s"}` {
		t.Fatalf("marshal: %s", out)
	}
	if err := json.Unmarshal([]byte(`{"timeout":"soon"}`), &s); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestRecoveryRemovesStagingFiles: a process that dies between
// creating a staging file and renaming it leaves <name>.*.tmp behind in
// the journal or models directory. The next Open must delete them and
// keep the complete files.
func TestRecoveryRemovesStagingFiles(t *testing.T) {
	dir := t.TempDir()
	m1 := openTest(t, Config{DataDir: dir})
	d, _ := dataset.RunningExample()
	rec, err := m1.Submit(Spec{Kind: KindTrain, ModelName: "kept", K: 2, NL: 3, MinsupFrac: 0.5},
		Data{Dataset: d, Name: "running-example"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, rec.ID)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	strays := []string{
		filepath.Join(dir, "jobs", rec.ID+".json.123.tmp"),
		filepath.Join(dir, "models", "kept.json.456.tmp"),
	}
	for _, p := range strays {
		if err := os.WriteFile(p, []byte(`{"half":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2 := openTest(t, Config{DataDir: dir})
	for _, p := range strays {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("staging file %s survived recovery: %v", filepath.Base(p), err)
		}
	}
	got, err := m2.Get(rec.ID)
	if err != nil || got.State != StateSucceeded {
		t.Fatalf("recovered record %+v, err %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "models", "kept.json")); err != nil {
		t.Fatalf("complete model file: %v", err)
	}
}
