package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/discretize"
	"repro/internal/jobs"
	"repro/internal/rcbt"
)

// streamFixtureCreate is the create body used across the streaming
// tests: 8 rows over two genes; g0 separates the classes perfectly
// (cut at (4+10)/2 = 7), g1 is noise MDL drops.
const streamFixtureCreate = `{
 "name": "d",
 "classes": ["a", "b"],
 "genes": ["g0", "g1"],
 "rows": [
  {"values": [1, 3], "label": "a"}, {"values": [2, 1], "label": "a"},
  {"values": [3, 4], "label": "a"}, {"values": [4, 1], "label": "a"},
  {"values": [10, 5], "label": "b"}, {"values": [11, 9], "label": "b"},
  {"values": [12, 2], "label": "b"}, {"values": [13, 6], "label": "b"}
 ]
}`

// newStreamServer wires a datastore and a jobs manager into a Server
// with auto-refresh debounced at refreshAfter.
func newStreamServer(t *testing.T, refreshAfter time.Duration, keep int) (*Server, *datastore.Store) {
	t.Helper()
	store, err := datastore.Open(datastore.Config{Dir: t.TempDir(), KeepVersions: keep})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.Open(context.Background(), jobs.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	d, _ := dataset.RunningExample()
	s := newTestServer(t, Config{
		Jobs:         mgr,
		Store:        store,
		RefreshAfter: refreshAfter,
		RefreshSpec:  jobs.Spec{K: 2, NL: 3, MinsupFrac: 0.5},
		Datasets:     map[string]NamedDataset{"running-example": {Dataset: d}},
	})
	t.Cleanup(s.Close)
	return s, store
}

func decodeDatasetInfo(t *testing.T, body *bytes.Buffer) DatasetInfo {
	t.Helper()
	var info DatasetInfo
	if err := json.Unmarshal(body.Bytes(), &info); err != nil {
		t.Fatalf("decode dataset info: %v (%s)", err, body)
	}
	return info
}

func TestDatasetCRUD(t *testing.T) {
	s, _ := newStreamServer(t, -1, 0) // auto-refresh off: pure CRUD

	rec := postJSONRaw(t, s, "/v1/datasets", streamFixtureCreate)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	info := decodeDatasetInfo(t, rec.Body)
	if info.Name != "d" || info.Version != 1 || info.Rows != 8 || info.Genes != 2 {
		t.Fatalf("create info %+v", info)
	}
	if info.SelectedGenes != 1 || info.Items != 2 {
		t.Fatalf("discretization info %+v: want 1 selected gene, 2 items", info)
	}

	if rec := postJSONRaw(t, s, "/v1/datasets", streamFixtureCreate); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/datasets",
		`{"name":"bad/name","classes":["a","b"],"genes":["g"]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad name: status %d: %s", rec.Code, rec.Body)
	}

	// Append two rows interior to the existing intervals.
	rec = postJSONRaw(t, s, "/v1/datasets/d/rows",
		`{"rows":[{"values":[2,8],"label":"a"},{"values":[12,3],"label":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	info = decodeDatasetInfo(t, rec.Body)
	if info.Version != 2 || info.Rows != 10 {
		t.Fatalf("append info %+v", info)
	}
	if info.Refresh == nil || info.Refresh.AppendedRows != 2 {
		t.Fatalf("append refresh stats %+v", info.Refresh)
	}

	// Error taxonomy on append.
	if rec := postJSONRaw(t, s, "/v1/datasets/nope/rows", `{"rows":[{"values":[1,1],"label":"a"}]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("append unknown: status %d", rec.Code)
	}
	if rec := postJSONRaw(t, s, "/v1/datasets/d/rows", `{"rows":[{"values":[1,1],"label":"c"}]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("append unknown class: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/datasets/d/rows", `{"rows":[{"values":[1],"label":"a"}]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("append short row: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/datasets/d/rows", `{"rows":[]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("empty append: status %d: %s", rec.Code, rec.Body)
	}

	// Inspection: latest, pinned, list, gone.
	rec = getJSON(t, s, "/v1/datasets/d")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: status %d", rec.Code)
	}
	info = decodeDatasetInfo(t, rec.Body)
	if info.Version != 2 || len(info.Versions) != 2 {
		t.Fatalf("get info %+v", info)
	}
	rec = getJSON(t, s, "/v1/datasets/d/versions/1")
	if rec.Code != http.StatusOK || decodeDatasetInfo(t, rec.Body).Rows != 8 {
		t.Fatalf("get v1: status %d: %s", rec.Code, rec.Body)
	}
	if rec := getJSON(t, s, "/v1/datasets/d/versions/9"); rec.Code != http.StatusConflict {
		t.Fatalf("get future version: status %d", rec.Code)
	}
	if rec := getJSON(t, s, "/v1/datasets/d/versions/zero"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("get non-numeric version: status %d", rec.Code)
	}
	if rec := getJSON(t, s, "/v1/datasets/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("get unknown: status %d", rec.Code)
	}
	rec = getJSON(t, s, "/v1/datasets")
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Datasets) != 1 {
		t.Fatalf("list: %v (%s)", err, rec.Body)
	}
}

// TestJobDatasetResolution covers the name / name@version job routing:
// latest, pinned, pruned (409), malformed (422), and the static-map
// fallback.
func TestJobDatasetResolution(t *testing.T) {
	s, store := newStreamServer(t, -1, 2)
	if rec := postJSONRaw(t, s, "/v1/datasets", streamFixtureCreate); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/datasets/d/rows",
		`{"rows":[{"values":[2,8],"label":"a"}]}`); rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}

	// Pinned to v1 while it is retained.
	job := submitJob(t, s, `{"kind":"train","dataset":"d@1","modelName":"m1","k":2,"nl":3,"minsupFrac":0.5}`)
	done := pollJob(t, s, job.ID)
	if done.State != jobs.StateSucceeded {
		t.Fatalf("pinned train: %+v", done)
	}
	if done.Spec.DatasetVersion != 1 || done.Spec.Dataset != "d@1" {
		t.Fatalf("pinned spec %+v, want datasetVersion 1", done.Spec)
	}

	// Latest resolves to v2.
	job = submitJob(t, s, `{"kind":"train","dataset":"d","modelName":"m2","k":2,"nl":3,"minsupFrac":0.5}`)
	if done = pollJob(t, s, job.ID); done.State != jobs.StateSucceeded || done.Spec.DatasetVersion != 2 {
		t.Fatalf("latest train %+v, want datasetVersion 2", done)
	}

	// Two more appends prune v1 (KeepVersions=2) → pinned ref is 409.
	for i := 0; i < 2; i++ {
		if rec := postJSONRaw(t, s, "/v1/datasets/d/rows",
			`{"rows":[{"values":[2,8],"label":"a"}]}`); rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	if vs, err := store.Versions("d"); err != nil || vs[0] != 3 {
		t.Fatalf("retained versions %v (%v)", vs, err)
	}
	if rec := postJSONRaw(t, s, "/v1/jobs", `{"kind":"train","dataset":"d@1"}`); rec.Code != http.StatusConflict {
		t.Fatalf("pruned pin: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/jobs", `{"kind":"train","dataset":"d@x"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("malformed ref: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSONRaw(t, s, "/v1/jobs", `{"kind":"train","dataset":"ghost"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d: %s", rec.Code, rec.Body)
	}

	// The static registered-dataset map still resolves.
	job = submitJob(t, s, `{"kind":"mine","dataset":"running-example","minsupFrac":0.5}`)
	if done = pollJob(t, s, job.ID); done.State != jobs.StateSucceeded {
		t.Fatalf("static dataset mine: %+v", done)
	}
	if done.Spec.DatasetVersion != 0 {
		t.Fatalf("static dataset stamped version %d, want 0", done.Spec.DatasetVersion)
	}
}

// pollModelVersion polls GET /v1/models until the named model reports
// the wanted dataset version.
func pollModelVersion(t *testing.T, s *Server, model string, version int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := getJSON(t, s, "/v1/models")
		var resp struct {
			Models []ModelInfo `json:"models"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
			for _, mi := range resp.Models {
				if mi.Name == model && mi.Meta != nil && mi.Meta.DatasetVersion == version {
					return
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("model %s never reached dataset version %d", model, version)
}

// TestAutoRefreshOracle is the tentpole's correctness bar: an append
// triggers a debounced re-train whose hot-swapped model must be
// indistinguishable from a from-scratch train on the final snapshot.
func TestAutoRefreshOracle(t *testing.T) {
	s, store := newStreamServer(t, time.Millisecond, 0)
	if rec := postJSONRaw(t, s, "/v1/datasets", streamFixtureCreate); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body)
	}
	rec := postJSONRaw(t, s, "/v1/datasets/d/rows",
		`{"rows":[{"values":[6,1],"label":"a"},{"values":[12,7],"label":"b"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	pollModelVersion(t, s, "d", 2)

	// Fetch the served envelope and rebuild the model it carries.
	envRec := getJSON(t, s, "/v1/models/d")
	if envRec.Code != http.StatusOK {
		t.Fatalf("model envelope: %d", envRec.Code)
	}
	got, err := rcbt.LoadModel(bytes.NewReader(envRec.Body.Bytes()))
	if err != nil {
		t.Fatalf("load served model: %v", err)
	}
	if got.Meta.DatasetVersion != 2 || got.Meta.TrainRows != 10 {
		t.Fatalf("served meta %+v", got.Meta)
	}

	// From-scratch oracle: refit + retransform + retrain on the final
	// snapshot's matrix, independent of the incremental pipeline.
	snap, err := store.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(snap.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	full, err := dz.Transform(snap.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rcbt.Train(full, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := got.Classifier.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if gotBuf.String() != wantBuf.String() {
		t.Fatalf("refreshed classifier diverges from from-scratch train:\n got %s\nwant %s",
			gotBuf.String(), wantBuf.String())
	}

	// The metrics surface the versions.
	metrics := getJSON(t, s, "/metrics").Body.String()
	for _, line := range []string{
		`rcbtserved_model_dataset_version{model="d"} 2`,
		`rcbtserved_dataset_latest_version{dataset="d"} 2`,
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}
}

// TestClassifyAcrossSwap hammers /v1/classify while appends hot-swap
// the model underneath: every response must be a 200 with a label from
// the class list — never an error, never a half-installed model.
func TestClassifyAcrossSwap(t *testing.T) {
	s, _ := newStreamServer(t, time.Millisecond, 0)
	if rec := postJSONRaw(t, s, "/v1/datasets", streamFixtureCreate); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body)
	}
	// Seed the first model and wait for it to serve.
	if rec := postJSONRaw(t, s, "/v1/jobs",
		`{"kind":"train","dataset":"d","modelName":"d","k":2,"nl":3,"minsupFrac":0.5}`); rec.Code != http.StatusAccepted {
		t.Fatalf("seed train: %d: %s", rec.Code, rec.Body)
	}
	pollModelVersion(t, s, "d", 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"values":[%d, 5]}`, 1+(i+w)%13)
				req := httptest.NewRequest(http.MethodPost, "/v1/models/d/classify", strings.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					select {
					case errCh <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()):
					default:
					}
					return
				}
				var resp ClassifyResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil ||
					(resp.Class != "a" && resp.Class != "b") {
					select {
					case errCh <- fmt.Sprintf("bad classify body: %s", rec.Body.String()):
					default:
					}
					return
				}
			}
		}(w)
	}

	// Each append swaps in a refreshed model while the workers hammer.
	for i := 0; i < 4; i++ {
		rec := postJSONRaw(t, s, "/v1/datasets/d/rows",
			fmt.Sprintf(`{"rows":[{"values":[%d,1],"label":"a"},{"values":[%d,2],"label":"b"}]}`, 1+i, 10+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d: %s", i, rec.Code, rec.Body)
		}
		pollModelVersion(t, s, "d", 2+i)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatalf("classification failed across swap: %s", msg)
	default:
	}
}
