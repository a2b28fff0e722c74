package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rcbt"
	"repro/internal/serve"
)

// TestServingLoadUsesModelRoute runs a short sweep against the fixture
// and reads the server's request counters: every measured request must
// hit the model's batch route directly, none the legacy route's 308.
func TestServingLoadUsesModelRoute(t *testing.T) {
	srv, rows, err := ServingFixture(100)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	pts, err := ServingLoad(context.Background(), io.Discard, ServingConfig{
		BaseURL: ts.URL, Rows: rows, Batches: []int{4},
		Requests: 8, Concurrency: 2, TargetQPS: 500, Bodies: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want closed and open", len(pts))
	}
	for _, pt := range pts {
		if pt.Errors != 0 || pt.Rows != 8*4 {
			t.Fatalf("%s point: %d errors, %d rows", pt.Mode, pt.Errors, pt.Rows)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	if strings.Contains(metrics, `code="308"`) {
		t.Fatalf("load went through a redirect:\n%s", metrics)
	}
	if !strings.Contains(metrics, `path="/v1/models/{name}/classify/batch",code="200"`) {
		t.Fatalf("no request reached the model's batch route:\n%s", metrics)
	}
}

// TestServingLoadNeedsOneModel checks the default model resolution: a
// server with two models and no ServingConfig.Model is an error.
func TestServingLoadNeedsOneModel(t *testing.T) {
	m := &rcbt.Model{Classifier: rcbt.ConstantClassifier(0, 2), ClassNames: []string{"a", "b"}, NumItems: 4}
	srv, err := serve.New(serve.Config{Models: map[string]*rcbt.Model{"a": m, "b": m}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, err = ServingLoad(context.Background(), io.Discard, ServingConfig{
		BaseURL: ts.URL, Rows: [][]int{{0}}, Batches: []int{1}, Requests: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "2 models") {
		t.Fatalf("err = %v, want the two-model error", err)
	}
}
