package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/rcbt"

	_ "repro/internal/carpenter" // register the slow closed-set miner the drain tests lean on
)

// newJobServer wires a jobs manager over a temp dir into a Server with
// the running example registered as a named dataset.
func newJobServer(t *testing.T, dir string) (*Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.Open(context.Background(), jobs.Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	d, _ := dataset.RunningExample()
	s := newTestServer(t, Config{
		Jobs: mgr,
		Datasets: map[string]NamedDataset{
			"running-example": {Dataset: d},
			"dense":           {Dataset: denseServeDataset()},
		},
	})
	return s, mgr
}

// denseServeDataset mirrors the jobs package's slow-job dataset: a
// closed-itemset tree far too large to finish inside a test.
func denseServeDataset() *dataset.Dataset {
	rng := rand.New(rand.NewSource(7))
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	const rows, items = 52, 72
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
	return d
}

func getJSON(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func deleteJSON(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, path, nil))
	return rec
}

// submitJob posts a job and returns its accepted record.
func submitJob(t *testing.T, s *Server, body string) jobs.Record {
	t.Helper()
	rec := postJSON(t, s, "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	var job jobs.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != jobs.StateQueued {
		t.Fatalf("accepted record %+v", job)
	}
	return job
}

// pollJob polls GET /v1/jobs/{id} until the record goes terminal.
func pollJob(t *testing.T, s *Server, id string) jobs.Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := getJSON(t, s, "/v1/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll: status %d: %s", rec.Code, rec.Body)
		}
		var job jobs.Record
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in 30s", id)
	return jobs.Record{}
}

// pollJobRunning waits for the job to leave the queue.
func pollJobRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var job jobs.Record
		if err := json.Unmarshal(getJSON(t, s, "/v1/jobs/"+id).Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		switch job.State {
		case jobs.StateRunning:
			return
		case jobs.StateQueued:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("job %s reached %s before running", id, job.State)
		}
	}
	t.Fatalf("job %s never started", id)
}

// TestJobLifecycleE2E is the end-to-end satellite: submit a train job
// over HTTP, poll to success, classify through the hot-registered
// model, and check label parity with an in-process training run.
func TestJobLifecycleE2E(t *testing.T) {
	s, _ := newJobServer(t, t.TempDir())
	job := submitJob(t, s,
		`{"kind":"train","dataset":"running-example","modelName":"hot","k":2,"nl":3,"minsupFrac":0.5}`)
	done := pollJob(t, s, job.ID)
	if done.State != jobs.StateSucceeded {
		t.Fatalf("job: %s (%s)", done.State, done.Error)
	}
	if done.ModelName != "hot" || done.Result == nil || done.Result.Classifiers == 0 {
		t.Fatalf("job record %+v result %+v", done, done.Result)
	}

	// The trained model serves without any restart or re-registration.
	d, _ := dataset.RunningExample()
	ref, err := rcbt.Train(d, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.NumRows(); r++ {
		wantLabel, _ := ref.Predict(d.RowItemSet(r))
		body, _ := json.Marshal(ClassifyRequest{Model: "hot", Items: d.Rows[r]})
		rec := postJSON(t, s, "/v1/models/hot/classify", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("classify row %d: status %d: %s", r, rec.Code, rec.Body)
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Label != int(wantLabel) {
			t.Fatalf("row %d: served label %d, in-process %d", r, resp.Label, wantLabel)
		}
	}

	// The job shows up in the listing and in the metrics.
	var list struct {
		Jobs []jobs.Record `json:"jobs"`
	}
	if err := json.Unmarshal(getJSON(t, s, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("job listing %+v", list.Jobs)
	}
	metrics := getJSON(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`rcbtserved_jobs_total{state="succeeded"} 1`,
		"rcbtserved_jobs_queue_depth 0",
		"rcbtserved_jobs_running 0",
		"rcbtserved_job_duration_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestJobInlineDataset(t *testing.T) {
	s, _ := newJobServer(t, t.TempDir())
	d, _ := dataset.RunningExample()
	inline := InlineDataset{Classes: d.ClassNames, NumItems: d.NumItems()}
	for r, row := range d.Rows {
		inline.Rows = append(inline.Rows, InlineRow{Items: row, Label: int(d.Labels[r])})
	}
	body, _ := json.Marshal(struct {
		Kind  string        `json:"kind"`
		Class string        `json:"class"`
		K     int           `json:"k"`
		Data  InlineDataset `json:"data"`
	}{Kind: "mine", Class: "C", K: 2, Data: inline})
	job := submitJob(t, s, string(body))
	done := pollJob(t, s, job.ID)
	if done.State != jobs.StateSucceeded {
		t.Fatalf("inline mine job: %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Groups == 0 {
		t.Fatalf("inline mine result %+v", done.Result)
	}
}

func TestJobHTTPErrors(t *testing.T) {
	s, _ := newJobServer(t, t.TempDir())
	cases := []struct {
		name string
		body string
		want int
	}{
		{"no dataset", `{"kind":"mine"}`, http.StatusBadRequest},
		{"both datasets", `{"kind":"mine","dataset":"running-example","data":{"classes":["a","b"],"rows":[{"items":[0],"label":0}]}}`, http.StatusBadRequest},
		{"unknown dataset", `{"kind":"mine","dataset":"nope"}`, http.StatusNotFound},
		{"bad kind", `{"kind":"optimize","dataset":"running-example"}`, http.StatusUnprocessableEntity},
		{"bad inline rows", `{"kind":"mine","data":{"classes":["only"],"rows":[{"items":[0],"label":0}]}}`, http.StatusUnprocessableEntity},
		// Universes past dataset.MaxItems: the server must refuse them,
		// not allocate 2^40 items.
		{"inline item id past the cap", `{"kind":"mine","data":{"classes":["a","b"],"rows":[{"items":[1099511627776],"label":0},{"items":[1],"label":1}]}}`, http.StatusUnprocessableEntity},
		{"inline numItems past the cap", `{"kind":"mine","data":{"classes":["a","b"],"numItems":1099511627776,"rows":[{"items":[0],"label":0},{"items":[1],"label":1}]}}`, http.StatusUnprocessableEntity},
		{"unknown field", `{"kind":"mine","dataset":"running-example","frobnicate":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := postJSON(t, s, "/v1/jobs", tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	if rec := getJSON(t, s, "/v1/jobs/job-missing"); rec.Code != http.StatusNotFound {
		t.Errorf("get unknown: %d", rec.Code)
	}
	if rec := deleteJSON(t, s, "/v1/jobs/job-missing"); rec.Code != http.StatusNotFound {
		t.Errorf("cancel unknown: %d", rec.Code)
	}
}

// paddedUniverseBody is 121 bytes that declare an anonymous universe of
// 2^20 items for two rows that use items 0 and 1. Taken on trust, it
// made toDataset build 2^20 named items, about 232 MB.
const paddedUniverseBody = `{"kind":"train","data":{"classes":["a","b"],"numItems":1048576,"rows":[{"items":[0],"label":0},{"items":[1],"label":1}]}}`

// TestJobNumItemsBoundedByRows checks that an anonymous numItems may
// restate the universe the rows use but not pad it, that the refusal
// allocates next to nothing, and that named items still pad.
func TestJobNumItemsBoundedByRows(t *testing.T) {
	s, _ := newJobServer(t, t.TempDir())
	if rec := postJSON(t, s, "/v1/jobs", paddedUniverseBody); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("padded anonymous universe: status %d, want 422 (%s)", rec.Code, rec.Body)
	}
	var req JobRequest
	if err := decodeStrict([]byte(paddedUniverseBody), &req); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := req.Data.toDataset()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("toDataset accepts a padded anonymous universe")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a %d-byte body allocated %d bytes", len(paddedUniverseBody), alloc)
	}

	rows := []InlineRow{{Items: []int{0}, Label: 0}, {Items: []int{1, 0}, Label: 1}}
	for _, tc := range []struct {
		in    InlineDataset
		items int
	}{
		{InlineDataset{Rows: rows}, 2},
		{InlineDataset{NumItems: 2, Rows: rows}, 2},
		{InlineDataset{Items: []string{"x", "y", "z"}, Rows: rows}, 3},
	} {
		tc.in.Classes = []string{"a", "b"}
		d, err := tc.in.toDataset()
		if err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		if d.NumItems() != tc.items {
			t.Fatalf("%+v: %d items, want %d", tc.in, d.NumItems(), tc.items)
		}
	}
	if _, err := (&InlineDataset{Classes: []string{"a", "b"}, NumItems: 3, Rows: rows}).toDataset(); err == nil {
		t.Fatal("numItems one past the rows' universe accepted")
	}
}

// TestJobShutdownOrdering is satellite (a) at the handler level: during
// a drain, running jobs keep going and new submissions get 503; Close
// then cancels the stragglers.
func TestJobShutdownOrdering(t *testing.T) {
	s, mgr := newJobServer(t, t.TempDir())
	slow := submitJob(t, s, `{"kind":"mine","miner":"carpenter","minsup":1,"dataset":"dense"}`)
	pollJobRunning(t, s, slow.ID)

	mgr.Drain()
	rec := postJSON(t, s, "/v1/jobs", `{"kind":"mine","dataset":"running-example"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503 (%s)", rec.Code, rec.Body)
	}
	// Draining rejects new work but does not kill running jobs.
	var mid jobs.Record
	if err := json.Unmarshal(getJSON(t, s, "/v1/jobs/"+slow.ID).Body.Bytes(), &mid); err != nil {
		t.Fatal(err)
	}
	if mid.State != jobs.StateRunning {
		t.Fatalf("running job during drain: %s", mid.State)
	}

	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	var final jobs.Record
	if err := json.Unmarshal(getJSON(t, s, "/v1/jobs/"+slow.ID).Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCanceled {
		t.Fatalf("running job after Close: %s (%s)", final.State, final.Error)
	}
}

// TestJobCancelEndpoint drives DELETE /v1/jobs/{id} through running and
// terminal states.
func TestJobCancelEndpoint(t *testing.T) {
	s, _ := newJobServer(t, t.TempDir())
	slow := submitJob(t, s, `{"kind":"mine","miner":"carpenter","minsup":1,"dataset":"dense"}`)
	pollJobRunning(t, s, slow.ID)
	if rec := deleteJSON(t, s, "/v1/jobs/"+slow.ID); rec.Code != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", rec.Code, rec.Body)
	}
	done := pollJob(t, s, slow.ID)
	if done.State != jobs.StateCanceled || done.Error == "" {
		t.Fatalf("canceled job %+v", done)
	}
	if rec := deleteJSON(t, s, "/v1/jobs/"+slow.ID); rec.Code != http.StatusConflict {
		t.Fatalf("cancel terminal: status %d, want 409", rec.Code)
	}
}

// TestJobRestartServing is the crash-restart satellite over HTTP: a
// fresh manager+server on the same data dir lists the old job and
// serves its model.
func TestJobRestartServing(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newJobServer(t, dir)
	job := submitJob(t, s1,
		`{"kind":"train","dataset":"running-example","modelName":"survivor","k":2,"nl":3,"minsupFrac":0.5}`)
	if done := pollJob(t, s1, job.ID); done.State != jobs.StateSucceeded {
		t.Fatalf("train job: %s (%s)", done.State, done.Error)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a new manager and server over the same data dir, with no
	// preloaded models at all.
	mgr2, err := jobs.Open(context.Background(), jobs.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr2.Close() })
	s2 := newTestServer(t, Config{Jobs: mgr2})

	var list struct {
		Jobs []jobs.Record `json:"jobs"`
	}
	if err := json.Unmarshal(getJSON(t, s2, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID || list.Jobs[0].State != jobs.StateSucceeded {
		t.Fatalf("restarted listing %+v", list.Jobs)
	}
	if names := s2.ModelNames(); len(names) != 1 || names[0] != "survivor" {
		t.Fatalf("restarted models %v", names)
	}

	d, _ := dataset.RunningExample()
	body, _ := json.Marshal(ClassifyRequest{Model: "survivor", Items: d.Rows[0]})
	if rec := postJSON(t, s2, "/v1/models/survivor/classify", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("classify after restart: status %d: %s", rec.Code, rec.Body)
	}
}
