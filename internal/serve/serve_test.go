package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rcbt"
	"repro/internal/synth"
)

// exampleModel trains RCBT on the paper's running example. It has no
// discretizer, so it serves item-id requests only.
func exampleModel(t *testing.T) *rcbt.Model {
	t.Helper()
	d, _ := dataset.RunningExample()
	clf, err := rcbt.Train(d, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return &rcbt.Model{
		Classifier: clf,
		ClassNames: d.ClassNames,
		NumItems:   d.NumItems(),
		Meta:       rcbt.Meta{Dataset: "running-example", TrainRows: d.NumRows()},
	}
}

// synthModel trains on a synthetic matrix and bundles the discretizer,
// so it serves raw expression values.
func synthModel(t *testing.T) (*rcbt.Model, *dataset.Matrix) {
	t.Helper()
	trainM, testM, err := synth.Generate(synth.Scaled(synth.ALL(), 60))
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(trainM)
	if err != nil {
		t.Fatal(err)
	}
	train, err := dz.Transform(trainM)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := rcbt.Train(train, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return &rcbt.Model{
		Classifier:  clf,
		Discretizer: dz,
		ClassNames:  train.ClassNames,
		NumItems:    train.NumItems(),
	}, testM
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no models must fail")
	}
	if _, err := New(Config{Models: map[string]*rcbt.Model{"m": nil}}); err == nil {
		t.Fatal("New with nil model must fail")
	}
	// No discretizer and no item universe: no row could be classified.
	bare := &rcbt.Model{Classifier: rcbt.ConstantClassifier(0, 2)}
	if _, err := New(Config{Models: map[string]*rcbt.Model{"m": bare}}); err == nil {
		t.Fatal("New with a model without an item universe must fail")
	}
}

func TestClassifyMatchesInProcessPredict(t *testing.T) {
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})
	d, _ := dataset.RunningExample()

	for r := 0; r < d.NumRows(); r++ {
		wantLabel, wantIdx := m.Classifier.Predict(d.RowItemSet(r))
		body, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[r]})
		rec := postJSON(t, s, "/v1/models/example/classify", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("row %d: status %d: %s", r, rec.Code, rec.Body)
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Label != int(wantLabel) || resp.Classifier != wantIdx {
			t.Fatalf("row %d: served (%d,%d), in-process (%d,%d)",
				r, resp.Label, resp.Classifier, wantLabel, wantIdx)
		}
		if resp.Class != d.ClassNames[wantLabel] {
			t.Fatalf("row %d: class %q, want %q", r, resp.Class, d.ClassNames[wantLabel])
		}
	}
}

func TestClassifyValuesMatchesInProcess(t *testing.T) {
	m, testM := synthModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"synth": m}})
	for r := 0; r < testM.NumRows() && r < 10; r++ {
		want, _, err := m.PredictValues(testM.Values[r])
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(ClassifyRequest{Model: "synth", Values: testM.Values[r]})
		rec := postJSON(t, s, "/v1/models/synth/classify", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("row %d: status %d: %s", r, rec.Code, rec.Body)
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Label != int(want) {
			t.Fatalf("row %d: served label %d, in-process %d", r, resp.Label, want)
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})
	const route = "/v1/models/example/classify"
	for name, tc := range map[string]struct {
		path, body string
		code       int
	}{
		"malformed json":    {route, `{"model": "example", "items": [`, http.StatusBadRequest},
		"unknown field":     {route, `{"model": "example", "rows": []}`, http.StatusBadRequest},
		"no row":            {route, `{"model": "example"}`, http.StatusBadRequest},
		"both values+items": {route, `{"model": "example", "items": [0], "values": [1.0]}`, http.StatusBadRequest},
		"unknown model":     {"/v1/models/nope/classify", `{"model": "nope", "items": [0]}`, http.StatusNotFound},
		// A body naming another model than the path is rejected, not
		// silently re-routed.
		"model mismatch":     {"/v1/models/other/classify", `{"model": "example", "items": [0]}`, http.StatusBadRequest},
		"item out of range":  {route, `{"model": "example", "items": [9999]}`, http.StatusUnprocessableEntity},
		"values without dz":  {route, `{"model": "example", "values": [1.0, 2.0]}`, http.StatusUnprocessableEntity},
		"method not allowed": {route, ``, http.StatusMethodNotAllowed},
	} {
		t.Run(name, func(t *testing.T) {
			var rec *httptest.ResponseRecorder
			if name == "method not allowed" {
				req := httptest.NewRequest(http.MethodGet, tc.path, nil)
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, req)
			} else {
				rec = postJSON(t, s, tc.path, tc.body)
			}
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
		})
	}
}

func TestBatchClassify(t *testing.T) {
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})
	d, _ := dataset.RunningExample()
	req := BatchRequest{Model: "example"}
	for r := 0; r < d.NumRows(); r++ {
		req.Rows = append(req.Rows, BatchRow{Items: d.Rows[r]})
	}
	// One poison row: must error per-row, not fail the batch.
	req.Rows = append(req.Rows, BatchRow{Items: []int{12345}})

	body, _ := json.Marshal(req)
	rec := postJSON(t, s, "/v1/models/example/classify/batch", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != d.NumRows()+1 {
		t.Fatalf("%d results, want %d", len(resp.Results), d.NumRows()+1)
	}
	for r := 0; r < d.NumRows(); r++ {
		want, _ := m.Classifier.Predict(d.RowItemSet(r))
		if resp.Results[r].Label != int(want) {
			t.Fatalf("row %d: label %d, want %d", r, resp.Results[r].Label, want)
		}
	}
	last := resp.Results[d.NumRows()]
	if last.Error == "" || last.Label != -1 {
		t.Fatalf("poison row result %+v, want per-row error", last)
	}
}

func TestBatchTooLarge(t *testing.T) {
	s := newTestServer(t, Config{
		Models:   map[string]*rcbt.Model{"example": exampleModel(t)},
		MaxBatch: 2,
	})
	body := `{"model": "example", "rows": [{"items":[0]},{"items":[0]},{"items":[0]}]}`
	rec := postJSON(t, s, "/v1/models/example/classify/batch", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
}

func TestRequestDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, Config{
		Models:         map[string]*rcbt.Model{"example": exampleModel(t)},
		RequestTimeout: time.Nanosecond,
	})
	rec := postJSON(t, s, "/v1/models/example/classify", `{"model": "example", "items": [0]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{
		"b-example": exampleModel(t),
		"a-example": exampleModel(t),
	}})
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 2 || resp.Models[0].Name != "a-example" {
		t.Fatalf("models = %+v, want sorted pair", resp.Models)
	}
	if resp.Models[0].Meta == nil || resp.Models[0].Meta.Dataset != "running-example" {
		t.Fatalf("meta not surfaced: %+v", resp.Models[0])
	}
	if resp.Models[0].HasDiscretizer {
		t.Fatal("example model should not report a discretizer")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("ok")) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}

func TestMetricsExposition(t *testing.T) {
	d, _ := dataset.RunningExample()
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})

	// Generate traffic: successes, a 400 and a 404.
	for r := 0; r < d.NumRows(); r++ {
		body, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[r]})
		if rec := postJSON(t, s, "/v1/models/example/classify", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("warmup status %d", rec.Code)
		}
	}
	postJSON(t, s, "/v1/models/example/classify", `{`)
	postJSON(t, s, "/v1/models/nope/classify", `{"model": "nope", "items": [0]}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		// The model-name segment is collapsed to {name} so the label set
		// stays bounded.
		fmt.Sprintf(`rcbtserved_requests_total{path="/v1/models/{name}/classify",code="200"} %d`, d.NumRows()),
		`rcbtserved_requests_total{path="/v1/models/{name}/classify",code="400"} 1`,
		`rcbtserved_requests_total{path="/v1/models/{name}/classify",code="404"} 1`,
		`rcbtserved_predictions_total{model="example",class="C"}`,
		fmt.Sprintf(`rcbtserved_request_seconds_count %d`, d.NumRows()+2),
		// The scrape itself is the one in-flight request.
		`rcbtserved_in_flight 1`,
		`# TYPE rcbtserved_request_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestUnroutedPathsShareOneSeries: requests_total is labelled by route,
// so any number of distinct unrouted URLs add one series, not one per
// URL. A wrong method on a routed path counts as unmatched too.
func TestUnroutedPathsShareOneSeries(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})
	const n = 50
	for i := 0; i < n; i++ {
		for _, p := range []string{
			fmt.Sprintf("/junk/%d", i),
			fmt.Sprintf("/v1/models/example/x%d", i),
			fmt.Sprintf("/v1/datasets/a/b%d", i),
		} {
			if rec := getJSON(t, s, p); rec.Code != http.StatusNotFound {
				t.Fatalf("GET %s: status %d, want 404", p, rec.Code)
			}
		}
	}
	if rec := getJSON(t, s, "/v1/models/example/classify"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: status %d, want 405", rec.Code)
	}
	var series []string
	for _, line := range strings.Split(getJSON(t, s, "/metrics").Body.String(), "\n") {
		if strings.HasPrefix(line, "rcbtserved_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{
		fmt.Sprintf(`rcbtserved_requests_total{path="unmatched",code="404"} %d`, 3*n),
		`rcbtserved_requests_total{path="unmatched",code="405"} 1`,
	}
	if strings.Join(series, "\n") != strings.Join(want, "\n") {
		t.Fatalf("requests_total series:\n%s\nwant:\n%s", strings.Join(series, "\n"), strings.Join(want, "\n"))
	}
}

// TestErrorEnvelope pins the unified {"error":{"code","message"}}
// shape across handler families.
func TestErrorEnvelope(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})
	for name, tc := range map[string]struct {
		path, body string
		status     int
		code       string
	}{
		"not found":     {"/v1/models/nope/classify", `{"items": [0]}`, http.StatusNotFound, "not_found"},
		"bad request":   {"/v1/models/example/classify", `{`, http.StatusBadRequest, "bad_request"},
		"unprocessable": {"/v1/models/example/classify", `{"items": [9999]}`, http.StatusUnprocessableEntity, "unprocessable"},
	} {
		t.Run(name, func(t *testing.T) {
			rec := postJSON(t, s, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			var resp struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("error body is not the envelope: %v in %s", err, rec.Body)
			}
			if resp.Error.Code != tc.code || resp.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %q with a message", resp.Error, tc.code)
			}
		})
	}
}

// TestBodyOverCapTooLarge sends a dataset create and a batch classify
// whose bodies pass the maxBodyBytes cap. Both must answer 413
// too_large, not 400 as a malformed body does.
func TestBodyOverCapTooLarge(t *testing.T) {
	s, _ := newStreamServer(t, -1, 0)
	if err := s.RegisterModel("example", exampleModel(t)); err != nil {
		t.Fatal(err)
	}
	row := `{"values":[1],"label":"a"},`
	create := `{"name":"big","classes":["a","b"],"genes":["g"],"rows":[` +
		strings.Repeat(row, maxBodyBytes/len(row)+1) + `{"values":[2],"label":"b"}]}`
	batch := `{"model":"` + strings.Repeat("m", maxBodyBytes) + `","rows":[{"items":[0]}]}`

	for _, tc := range []struct{ path, body string }{
		{"/v1/datasets", create},
		{"/v1/models/example/classify/batch", batch},
	} {
		rec := postJSON(t, s, tc.path, tc.body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413: %.200s", tc.path, len(tc.body), rec.Code, rec.Body)
		}
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error.Code != "too_large" {
			t.Fatalf("%s: error body %s, want code too_large", tc.path, rec.Body)
		}
	}
}

// TestModelEnvelopeGet: GET /v1/models/{name} returns the same
// envelope Model.Save writes — loadable and serving identically.
func TestModelEnvelopeGet(t *testing.T) {
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})
	req := httptest.NewRequest(http.MethodGet, "/v1/models/example", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	loaded, err := rcbt.LoadModel(rec.Body)
	if err != nil {
		t.Fatalf("envelope does not load: %v", err)
	}
	d, _ := dataset.RunningExample()
	for r := 0; r < d.NumRows(); r++ {
		want, _ := m.Classifier.Predict(d.RowItemSet(r))
		got, _ := loaded.Classifier.Predict(d.RowItemSet(r))
		if got != want {
			t.Fatalf("row %d: fetched model predicts %d, original %d", r, got, want)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/models/nope", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", rec.Code)
	}
}

// TestModelPullSkipsFailingPeer: a peer that answers 503 gets the
// replica's caller a 404, and the replica registers nothing, even when
// the 503's body is a valid envelope.
func TestModelPullSkipsFailingPeer(t *testing.T) {
	m := exampleModel(t)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		if err := m.Save(w); err != nil {
			t.Error(err)
		}
	}))
	defer peer.Close()
	replica := newTestServer(t, Config{
		Models: map[string]*rcbt.Model{"local": exampleModel(t)},
		Peers:  []string{peer.URL},
	})
	rec := httptest.NewRecorder()
	replica.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models/shared", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("model behind a failing peer: status %d, want 404", rec.Code)
	}
	if names := replica.ModelNames(); len(names) != 1 || names[0] != "local" {
		t.Fatalf("replica models = %v, want [local]", names)
	}
}

// TestModelPullOnMiss: a replica without the model fetches the
// envelope from its peer on first use, registers it, and serves it —
// and the loop-guard header keeps a self-peering replica from
// recursing.
func TestModelPullOnMiss(t *testing.T) {
	m := exampleModel(t)
	origin := newTestServer(t, Config{Models: map[string]*rcbt.Model{"shared": m}})
	originTS := httptest.NewServer(origin)
	defer originTS.Close()

	// The replica holds a different model, so it starts non-empty but
	// misses "shared".
	replica := newTestServer(t, Config{
		Models: map[string]*rcbt.Model{"local": exampleModel(t)},
		Peers:  []string{originTS.URL},
	})
	d, _ := dataset.RunningExample()
	body, _ := json.Marshal(ClassifyRequest{Items: d.Rows[0]})
	rec := postJSON(t, replica, "/v1/models/shared/classify", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("pull-on-miss classify: %d %s", rec.Code, rec.Body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, _ := m.Classifier.Predict(d.RowItemSet(0))
	if resp.Label != int(want) {
		t.Fatalf("pulled model predicts %d, origin predicts %d", resp.Label, want)
	}
	// Loop guard: a request already marked as a peer fetch is answered
	// from local state only — no pull happens even though the peer has
	// the model, which is what breaks replica-to-replica cycles.
	guarded := newTestServer(t, Config{
		Models: map[string]*rcbt.Model{"local": exampleModel(t)},
		Peers:  []string{originTS.URL},
	})
	req := httptest.NewRequest(http.MethodGet, "/v1/models/shared", nil)
	req.Header.Set("X-Rcbt-Peer-Fetch", "1")
	guardRec := httptest.NewRecorder()
	guarded.ServeHTTP(guardRec, req)
	if guardRec.Code != http.StatusNotFound {
		t.Fatalf("guarded fetch: status %d, want 404", guardRec.Code)
	}

	// The model is now registered locally on the replica: listed, and
	// served with the origin gone.
	originTS.Close()
	names := replica.ModelNames()
	if len(names) != 2 || names[1] != "shared" {
		t.Fatalf("replica models = %v, want [local shared]", names)
	}
	rec = postJSON(t, replica, "/v1/models/shared/classify", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-pull classify: %d %s", rec.Code, rec.Body)
	}
}

// TestCheckedInFixtureServes guards the committed CI smoke fixtures:
// testdata/model.json must load and classify testdata/
// classify_request.json successfully.
func TestCheckedInFixtureServes(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "model.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rcbt.LoadModel(f)
	f.Close() // read-only test fixture
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"fixture": m}})

	reqBody, err := os.ReadFile(filepath.Join("testdata", "classify_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s, "/v1/models/fixture/classify", string(reqBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("fixture classify: %d %s", rec.Code, rec.Body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Class == "" || resp.Label < 0 {
		t.Fatalf("fixture classify response: %+v", resp)
	}
}

func TestServedModelFromEnvelopeRoundTrip(t *testing.T) {
	// A model that went through Save/LoadModel must serve identically
	// to the in-memory one.
	m := exampleModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rcbt.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": loaded}})
	d, _ := dataset.RunningExample()
	for r := 0; r < d.NumRows(); r++ {
		want, _ := m.Classifier.Predict(d.RowItemSet(r))
		body, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[r]})
		rec := postJSON(t, s, "/v1/models/example/classify", string(body))
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Label != int(want) {
			t.Fatalf("row %d: served %d, want %d", r, resp.Label, want)
		}
	}
}

// TestClassifierOnlyEnvelopeServes: an envelope written by
// Classifier.Save has no numItems and no discretizer. LoadModel sizes
// its universe from the rules, and both classify routes serve it on the
// same path as every other model.
func TestClassifierOnlyEnvelopeServes(t *testing.T) {
	m := exampleModel(t)
	var buf bytes.Buffer
	if err := m.Classifier.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rcbt.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"bare": loaded}})
	d, _ := dataset.RunningExample()
	var batch BatchRequest
	for r := 0; r < d.NumRows(); r++ {
		// No rule names an item past the universe, so dropping those
		// items cannot change the label.
		var items []int
		for _, it := range d.Rows[r] {
			if it < loaded.NumItems {
				items = append(items, it)
			}
		}
		batch.Rows = append(batch.Rows, BatchRow{Items: items})
		want, wantIdx := m.Classifier.Predict(d.RowItemSet(r))
		body, _ := json.Marshal(ClassifyRequest{Items: items})
		rec := postJSON(t, s, "/v1/models/bare/classify", string(body))
		var resp ClassifyResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
			resp.Label != int(want) || resp.Classifier != wantIdx {
			t.Fatalf("row %d: %d %s, want label %d from classifier %d", r, rec.Code, rec.Body, want, wantIdx)
		}
	}
	body, _ := json.Marshal(batch)
	rec := postJSON(t, s, "/v1/models/bare/classify/batch", string(body))
	var resp BatchResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Results) != d.NumRows() {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	for r, got := range resp.Results {
		want, wantIdx := m.Classifier.Predict(d.RowItemSet(r))
		if got.Label != int(want) || got.Classifier != wantIdx {
			t.Fatalf("batch row %d: (%d,%d), want (%d,%d)", r, got.Label, got.Classifier, want, wantIdx)
		}
	}
	rec = postJSON(t, s, "/v1/models/bare/classify", fmt.Sprintf(`{"items": [%d]}`, loaded.NumItems))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("item id at the universe: status %d, want 422: %s", rec.Code, rec.Body)
	}
}

// TestBodyOverCapTooLargeEveryRoute sends bodies past the maxBodyBytes
// cap to the other routes that read a body: the single classify, the
// dataset append and the job submit. Each must answer 413 too_large.
func TestBodyOverCapTooLargeEveryRoute(t *testing.T) {
	s, _ := newStreamServer(t, -1, 0)
	if err := s.RegisterModel("example", exampleModel(t)); err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte("m"), maxBodyBytes)
	for _, tc := range []struct{ path, prefix, suffix string }{
		{"/v1/models/example/classify", `{"model":"`, `"}`},
		{"/v1/datasets/d/rows", `{"rows":[{"values":[1],"label":"`, `"}]}`},
		{"/v1/jobs", `{"kind":"`, `"}`},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix), bytes.NewReader(filler), strings.NewReader(tc.suffix))
		req := httptest.NewRequest(http.MethodPost, tc.path, body)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %.200s", tc.path, rec.Code, rec.Body)
		}
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error.Code != "too_large" {
			t.Fatalf("%s: error body %s, want code too_large", tc.path, rec.Body)
		}
	}
}

// TestBodyNotSizedFromContentLength: a request that declares a body of
// maxBodyBytes-1 bytes but carries 20 must not make the handler
// reserve the declared size. A handler runs as soon as the headers
// arrive, so sizing from them would let a client hold the cap per
// connection without sending it.
func TestBodyNotSizedFromContentLength(t *testing.T) {
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": exampleModel(t)}})
	const body = `{"items": [0,1,2,3]}`
	if len(body) != 20 {
		t.Fatalf("body is %d bytes, want 20", len(body))
	}
	send := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/example/classify", strings.NewReader(body))
		req.ContentLength = maxBodyBytes - 1
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	send() // first use builds what the server builds lazily
	var rec *httptest.ResponseRecorder
	alloc := allocBytes(func() { rec = send() })
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if alloc >= 1<<20 {
		t.Fatalf("handler allocated %d bytes for a 20-byte body declared as %d", alloc, maxBodyBytes-1)
	}
}
