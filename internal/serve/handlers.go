package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"repro/internal/dataset"
	"repro/internal/rcbt"
)

// maxBodyBytes bounds request bodies so a misbehaving client cannot
// buffer unbounded JSON into the server.
const maxBodyBytes = 32 << 20

// ClassifyRequest is the body of POST /v1/models/{name}/classify.
// Exactly one of Values (raw expression row, discretized with the
// model's cuts) or Items (pre-discretized item ids) must be set.
// Model is optional on the model-scoped route (the path names the
// model); when present it must match the path.
type ClassifyRequest struct {
	Model  string    `json:"model,omitempty"`
	Values []float64 `json:"values,omitempty"`
	Items  []int     `json:"items,omitempty"`
}

// ClassifyResponse is the body of a successful classification.
type ClassifyResponse struct {
	Model string `json:"model"`
	Label int    `json:"label"`
	Class string `json:"class"`
	// Classifier is the 0-based index of the sub-classifier that
	// decided (0 = main), or -1 when the default class was used.
	Classifier int `json:"classifier"`
}

// BatchRequest is the body of POST /v1/models/{name}/classify/batch.
// Each row is classified independently against the same model. The
// same Model rule as ClassifyRequest applies.
type BatchRequest struct {
	Model string     `json:"model,omitempty"`
	Rows  []BatchRow `json:"rows"`
}

// BatchRow is one row of a batch request; the same one-of rule as
// ClassifyRequest applies.
type BatchRow struct {
	Values []float64 `json:"values,omitempty"`
	Items  []int     `json:"items,omitempty"`
}

// BatchResponse carries one result per request row, in order. Rows
// that failed have a non-empty Error and a Label of -1.
type BatchResponse struct {
	Model   string        `json:"model"`
	Results []BatchResult `json:"results"`
}

// BatchResult is the outcome for one batch row.
type BatchResult struct {
	Label      int    `json:"label"`
	Class      string `json:"class,omitempty"`
	Classifier int    `json:"classifier"`
	Error      string `json:"error,omitempty"`
}

// ModelInfo describes one loaded model in GET /v1/models.
type ModelInfo struct {
	Name           string     `json:"name"`
	Classes        []string   `json:"classes,omitempty"`
	NumItems       int        `json:"numItems,omitempty"`
	Genes          int        `json:"genes,omitempty"`
	HasDiscretizer bool       `json:"hasDiscretizer"`
	Meta           *rcbt.Meta `json:"meta,omitempty"`
}

// errorResponse is the unified error envelope every handler writes:
// {"error":{"code","message"}}. Code is a stable machine-readable slug
// derived from the HTTP status; Message is the human diagnostic.
type errorResponse struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// codeForStatus names each HTTP status the handlers produce; clients
// switch on the slug instead of parsing messages.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline"
	default:
		if status >= 500 {
			return "internal"
		}
		return "error"
	}
}

// bindModelName reconciles the route's {name} with the body's
// optional model field: an empty body field inherits the path, a
// mismatch is a 400.
func bindModelName(w http.ResponseWriter, r *http.Request, model *string) bool {
	name := r.PathValue("name")
	if *model != "" && *model != name {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("body names model %q but the path names %q", *model, name))
		return false
	}
	*model = name
	return true
}

func (s *Server) handleClassifyModel(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !bindModelName(w, r, &req.Model) {
		return
	}
	m, ok := s.lookupModel(w, r, req.Model)
	if !ok {
		return
	}
	if err := r.Context().Err(); err != nil {
		writeClassifyError(w, err)
		return
	}
	label, idx, err := classify(m, req.Values, req.Items)
	if err != nil {
		writeClassifyError(w, err)
		return
	}
	class := m.ClassName(label)
	s.metrics.recordPrediction(req.Model, class)
	writeJSON(w, http.StatusOK, ClassifyResponse{
		Model:      req.Model,
		Label:      int(label),
		Class:      class,
		Classifier: idx,
	})
}

func (s *Server) handleBatchModel(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBatchRequest(w, r, s.maxB)
	if !ok {
		return
	}
	if !bindModelName(w, r, &req.Model) {
		return
	}
	m, ok := s.lookupModel(w, r, req.Model)
	if !ok {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no rows")
		return
	}
	ctx := r.Context()
	results := make([]BatchResult, len(req.Rows))
	for i, row := range req.Rows {
		if err := ctx.Err(); err != nil {
			writeClassifyError(w, err)
			return
		}
		label, idx, err := classify(m, row.Values, row.Items)
		if err != nil {
			results[i] = BatchResult{Label: -1, Classifier: -1, Error: err.Error()}
			continue
		}
		class := m.ClassName(label)
		s.metrics.recordPrediction(req.Model, class)
		results[i] = BatchResult{Label: int(label), Class: class, Classifier: idx}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Model: req.Model, Results: results})
}

// decodeBatchRequest reads a batch body of at most maxB rows. The body
// is read whole under maxBodyBytes first. A batch past maxB then gets
// 413 before any row is classified: the request reader declines at
// row maxB+1, and the token decoder stops there without decoding the
// excess rows.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, maxB int) (*BatchRequest, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	if req, ok := readBatchRequest(body, maxB); ok {
		return req, true
	}
	req, err := decodeBatchTokens(body, maxB)
	if err != nil {
		writeDecodeError(w, err)
		return nil, false
	}
	return req, true
}

// batchTooLarge is the error of a batch with more rows than its limit.
type batchTooLarge int

func (n batchTooLarge) Error() string {
	return fmt.Sprintf("batch exceeds the %d-row limit", int(n))
}

// decodeBatchTokens decodes a batch body token by token with
// encoding/json, the path for every body the request reader declines.
// Rows are appended one by one, and row maxB+1 stops it with
// batchTooLarge.
func decodeBatchTokens(body []byte, maxB int) (*BatchRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, errors.New("request body must be a JSON object")
	}
	req := &BatchRequest{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := keyTok.(string)
		switch key {
		case "model":
			if err := dec.Decode(&req.Model); err != nil {
				return nil, err
			}
		case "rows":
			tok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			if tok == nil { // "rows": null, same as absent
				continue
			}
			if d, ok := tok.(json.Delim); !ok || d != '[' {
				return nil, errors.New("rows must be an array")
			}
			for dec.More() {
				if len(req.Rows) >= maxB {
					return nil, batchTooLarge(maxB)
				}
				var row BatchRow
				if err := dec.Decode(&row); err != nil {
					return nil, err
				}
				req.Rows = append(req.Rows, row)
			}
			if _, err := dec.Token(); err != nil { // closing ']'
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown field %q", key)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, err
	}
	return req, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]ModelInfo, 0, len(s.models))
	for name, m := range s.models {
		info := ModelInfo{
			Name:           name,
			Classes:        m.ClassNames,
			NumItems:       m.NumItems,
			HasDiscretizer: m.Discretizer != nil,
		}
		if m.Discretizer != nil {
			info.Genes = len(m.Discretizer.GeneNames)
		}
		if m.Meta != (rcbt.Meta{}) {
			meta := m.Meta
			info.Meta = &meta
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string][]ModelInfo{"models": infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w)
	s.writeModelVersionMetrics(w)
	if s.jobs != nil {
		writeJobMetrics(w, s.jobs.Metrics())
	}
	if s.store != nil {
		s.writeDatasetMetrics(w)
	}
}

// shapeError marks a malformed row specification; it maps to 400
// rather than the 422 used for rows a valid request shape cannot
// classify (wrong width, unknown item ids).
type shapeError string

func (e shapeError) Error() string { return string(e) }

// classify labels one request row and is the only code in the package
// that does. It checks the values/items one-of (a 400), then leaves
// every row check and the rule walk to m.PredictValues or
// m.PredictItems.
func classify(m *rcbt.Model, values []float64, items []int) (dataset.Label, int, error) {
	switch {
	case len(values) > 0 && len(items) > 0:
		return -1, -1, shapeError("set exactly one of values or items, not both")
	case len(values) > 0:
		return m.PredictValues(values)
	case len(items) > 0:
		return m.PredictItems(items)
	}
	return -1, -1, shapeError("set one of values or items")
}

func (s *Server) lookupModel(w http.ResponseWriter, r *http.Request, name string) (*rcbt.Model, bool) {
	s.mu.RLock()
	m, ok := s.models[name]
	s.mu.RUnlock()
	if !ok {
		if m = s.pullFromPeers(r, name); m != nil {
			return m, true
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return nil, false
	}
	return m, true
}

// peerFetchHeader guards pull-on-miss against replica loops: a fetch
// carrying it is answered from local state only.
const peerFetchHeader = "X-Rcbt-Peer-Fetch"

// pullFromPeers fetches the named model's envelope from the first
// configured peer that has it, registers it locally, and returns the
// model — the replication read path. It returns nil when peers are not
// configured, the incoming request is itself a peer fetch (loop
// guard), or no peer has the model.
func (s *Server) pullFromPeers(r *http.Request, name string) *rcbt.Model {
	if len(s.peers) == 0 || r.Header.Get(peerFetchHeader) != "" {
		return nil
	}
	for _, peer := range s.peers {
		m, err := s.fetchPeerModel(r.Context(), peer, name)
		if err != nil {
			if s.logger != nil {
				s.logger.Warn("peer model fetch", "peer", peer, "model", name, "err", err)
			}
			continue
		}
		if err := s.RegisterModel(name, m); err != nil {
			continue
		}
		if s.logger != nil {
			s.logger.Info("model pulled from peer", "peer", peer, "model", name)
		}
		return m
	}
	return nil
}

func (s *Server) fetchPeerModel(ctx context.Context, peer, name string) (*rcbt.Model, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer+"/v1/models/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(peerFetchHeader, "1")
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // vetsuite:allow uncheckederr -- read-only response body
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: model %q: status %d", peer, name, resp.StatusCode)
	}
	return rcbt.LoadModel(io.LimitReader(resp.Body, maxBodyBytes))
}

// handleModelGet writes the model's envelope — the same JSON
// rcbt.Model.Save persists — so replicas (and operators) can fetch a
// servable copy of any model this replica holds.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	m, ok := s.models[name]
	s.mu.RUnlock()
	if !ok {
		if m = s.pullFromPeers(r, name); m == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := m.Save(w); err != nil && s.logger != nil {
		s.logger.Error("write model envelope", "model", name, "err", err)
	}
}

// readBody reads the whole request body, up to maxBodyBytes. The
// buffer doubles as bytes arrive (io.ReadAll grows by a quarter, which
// allocates about five times an 8 MB body), and is never sized from
// Content-Length: a handler runs once the headers are in, so sizing
// from them would let a client reserve the cap per connection without
// sending it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var body bytes.Buffer
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeDecodeError(w, err)
		return nil, false
	}
	return body.Bytes(), true
}

// decodeJSON reads a request body into dst: with the request reader
// (reader.go) when it accepts the body, and otherwise with
// encoding/json, which then decides the status and message.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if readRequest(body, dst) {
		return true
	}
	if err := decodeStrict(body, dst); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// decodeStrict decodes the first JSON value of body into dst with
// encoding/json: unknown fields are errors, and bytes after the value
// are ignored.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// writeDecodeError answers a request body that could not be decoded:
// 413 when it ran past maxBodyBytes or a batch past its row limit, 400
// otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	var tooMany batchTooLarge
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
	case errors.As(err, &tooMany):
		writeError(w, http.StatusRequestEntityTooLarge, tooMany.Error())
	default:
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
	}
}

func writeClassifyError(w http.ResponseWriter, err error) {
	var shape shapeError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	case errors.As(err, &shape):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: errorDetail{Code: codeForStatus(code), Message: msg}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) // vetsuite:allow uncheckederr -- response already committed; client gone is not actionable
}
