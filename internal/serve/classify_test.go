package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rcbt"
)

// TestHotSwapServesNewModel: after RegisterModel replaces a name, the
// same row must classify through the NEW model.
func TestHotSwapServesNewModel(t *testing.T) {
	d, _ := dataset.RunningExample()
	m := exampleModel(t)
	s := newTestServer(t, Config{Models: map[string]*rcbt.Model{"example": m}})

	row, _ := json.Marshal(ClassifyRequest{Model: "example", Items: d.Rows[0]})
	rec := postJSON(t, s, "/v1/models/example/classify", string(row))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var before ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// Swap in a constant-default model: every rule gone, so any row —
	// including the one just served — must now get the default class.
	swapped := &rcbt.Model{
		Classifier: rcbt.ConstantClassifier(dataset.Label(1-before.Label), len(d.ClassNames)),
		ClassNames: d.ClassNames,
		NumItems:   d.NumItems(),
	}
	if err := s.RegisterModel("example", swapped); err != nil {
		t.Fatal(err)
	}

	rec = postJSON(t, s, "/v1/models/example/classify", string(row))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap status %d: %s", rec.Code, rec.Body)
	}
	var after ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Label == before.Label {
		t.Fatalf("post-swap label %d == pre-swap label %d: old model served", after.Label, before.Label)
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
// oversized rows arrive before the model name, and before any row past
// the limit is decoded. The body itself is read whole under the byte
// cap.
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
