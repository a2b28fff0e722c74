package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rcbt"
)

func TestPredictCacheLRU(t *testing.T) {
	c := newPredictCache(2)
	rowA := bitset.FromIndices(10, 1)
	rowB := bitset.FromIndices(10, 2)
	rowC := bitset.FromIndices(10, 3)

	if _, _, ok := c.get(rowA); ok {
		t.Fatal("empty cache must miss")
	}
	c.put(rowA, 1, 0)
	c.put(rowB, 0, 1)
	if label, idx, ok := c.get(rowA); !ok || label != 1 || idx != 0 {
		t.Fatalf("get(A) = (%d,%d,%v), want (1,0,true)", label, idx, ok)
	}
	// A was just touched, so inserting C must evict B.
	c.put(rowC, 1, 2)
	if _, _, ok := c.get(rowB); ok {
		t.Fatal("B should have been evicted")
	}
	if _, _, ok := c.get(rowA); !ok {
		t.Fatal("A should have survived the eviction")
	}
	cc := c.counters()
	if cc.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cc.evictions)
	}
	if cc.hits != 2 || cc.misses != 2 {
		t.Fatalf("(hits,misses) = (%d,%d), want (2,2)", cc.hits, cc.misses)
	}

	// Mutating the caller's row after put must not corrupt the cached
	// key (put clones).
	rowC.Add(7)
	if _, _, ok := c.get(bitset.FromIndices(10, 3)); !ok {
		t.Fatal("cached key aliased to the caller's mutable row")
	}
}

func getMetrics(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestServeCacheMetrics drives repeated classifications through both
// the single-row and batch endpoints and checks the hit/miss counters
// surface in /metrics.
func TestServeCacheMetrics(t *testing.T) {
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})
	d, _ := dataset.RunningExample()

	row, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[0]})
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		if rec := postJSON(t, s, "/v1/models/example/classify", string(row)); rec.Code != http.StatusOK {
			t.Fatalf("classify status %d: %s", rec.Code, rec.Body)
		}
	}
	batch := BatchRequest{Model: "example"}
	for r := 0; r < d.NumRows(); r++ {
		batch.Rows = append(batch.Rows, BatchRow{Items: d.Rows[r]})
	}
	body, _ := json.Marshal(batch)
	// First batch: row 0 hits (classified above) and row 3, a repeat of
	// row 2, hits on its second occurrence; the rest miss and are
	// filled. The identical second batch hits on every row.
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, s, "/v1/models/example/classify/batch", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
		}
	}

	text := getMetrics(t, s)
	wantHits := uint64(2 + 2 + d.NumRows())
	wantMisses := uint64(1 + d.NumRows() - 2)
	for _, want := range []string{
		fmt.Sprintf(`rcbtserved_predict_cache_hits_total{model="example"} %d`, wantHits),
		fmt.Sprintf(`rcbtserved_predict_cache_misses_total{model="example"} %d`, wantMisses),
		`rcbtserved_predict_cache_evictions_total{model="example"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHotSwapEmptiesCache proves a model reload cannot serve stale
// cached labels: after RegisterModel replaces a name, the same row
// must classify through the NEW model, and the cache counters reset.
func TestHotSwapEmptiesCache(t *testing.T) {
	d, _ := dataset.RunningExample()
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})

	row, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[0]})
	var before ClassifyResponse
	for i := 0; i < 2; i++ { // warm the cache: miss then hit
		rec := postJSON(t, s, "/v1/models/example/classify", string(row))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(getMetrics(t, s), `rcbtserved_predict_cache_hits_total{model="example"} 1`) {
		t.Fatal("cache not warmed before the swap")
	}

	// Swap in a constant-default model: every rule gone, so any row —
	// including the cached one — must now get the default class. If the
	// old cache survived the swap, row 0 would keep its old label.
	swapped := &rcbt.Model{
		Classifier: rcbt.ConstantClassifier(dataset.Label(1-before.Label), len(d.ClassNames)),
		ClassNames: d.ClassNames,
		NumItems:   d.NumItems(),
	}
	if err := s.RegisterModel("example", swapped); err != nil {
		t.Fatal(err)
	}

	rec := postJSON(t, s, "/v1/models/example/classify", string(row))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap status %d: %s", rec.Code, rec.Body)
	}
	var after ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Label == before.Label {
		t.Fatalf("post-swap label %d == pre-swap label %d: stale cache served", after.Label, before.Label)
	}
	text := getMetrics(t, s)
	if !strings.Contains(text, `rcbtserved_predict_cache_hits_total{model="example"} 0`) ||
		!strings.Contains(text, `rcbtserved_predict_cache_misses_total{model="example"} 1`) {
		t.Fatalf("swap did not reset the cache counters:\n%s", text)
	}
}

// TestBatchMatchesPredictValues: the batch endpoint must agree row for
// row with the in-process Model.PredictValues.
func TestBatchMatchesPredictValues(t *testing.T) {
	m, testM := synthModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"synth": m}})
	batch := BatchRequest{Model: "synth"}
	n := testM.NumRows()
	for r := 0; r < n; r++ {
		batch.Rows = append(batch.Rows, BatchRow{Values: testM.Values[r]})
	}
	body, _ := json.Marshal(batch)
	rec := postJSON(t, s, "/v1/models/synth/classify/batch", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != n {
		t.Fatalf("%d results, want %d", len(resp.Results), n)
	}
	for r := 0; r < n; r++ {
		want, wantIdx, err := m.PredictValues(testM.Values[r])
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[r]
		if got.Label != int(want) || got.Classifier != wantIdx {
			t.Fatalf("row %d: batch (%d,%d), PredictValues (%d,%d)", r, got.Label, got.Classifier, want, wantIdx)
		}
	}
}

// TestBatchTooLargeStreaming: the 413 must fire even when the
// oversized rows arrive before the model name, and the handler must
// not have buffered past the limit.
func TestBatchTooLargeStreaming(t *testing.T) {
	s := newTestServer(t, Config{
		Models:   map[string]*rcbt.Model{"example": exampleModel(t)},
		MaxBatch: 2,
	})
	var sb strings.Builder
	sb.WriteString(`{"rows": [`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"items":[0]}`)
	}
	sb.WriteString(`], "model": "example"}`)
	rec := postJSON(t, s, "/v1/models/example/classify/batch", sb.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
}
