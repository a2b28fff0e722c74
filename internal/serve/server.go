// Package serve exposes trained RCBT classifiers over an HTTP JSON
// API. A Server owns a set of named models (the envelopes written by
// rcbt.Model.Save / cmd/rcbt -save), classifies single rows and
// bounded batches, and reports Prometheus-style metrics.
//
// Endpoints (resource-oriented surface):
//
//	GET  /v1/models                        list loaded models and their metadata
//	GET  /v1/models/{name}                 fetch a model's envelope (replication)
//	POST /v1/models/{name}/classify        classify one row
//	POST /v1/models/{name}/classify/batch  classify up to Config.MaxBatch rows
//	POST   /v1/jobs                        submit a mine/train job (with Config.Jobs)
//	GET    /v1/jobs                        list jobs, GET /v1/jobs/{id} one job
//	DELETE /v1/jobs/{id}                   cancel a job
//	POST /v1/datasets                      create a versioned dataset (with Config.Store)
//	POST /v1/datasets/{name}/rows          append rows → new snapshot + auto-refresh
//	GET  /v1/datasets                      list datasets; /{name} latest, /{name}/versions/{v} pinned
//	GET  /healthz                          liveness probe
//	GET  /metrics                          Prometheus text exposition
//
// Job submissions reference datastore datasets as "{name}" (latest
// snapshot) or "{name}@{v}" (pinned version; 409 once pruned).
//
// Every handler that takes a body reads it whole, up to a 32 MiB cap
// (413 past it). The dataset create and append bodies and both
// classify bodies then go through a one-pass request reader
// (reader.go), which accepts only what it decodes exactly as
// encoding/json would; a body it declines is decoded by encoding/json,
// which decides its status and message. The job body always goes
// through encoding/json.
//
// Both classify routes label each row the same way, with
// rcbt.Model.PredictValues or PredictItems (discretize, then walk the
// main and standby rule lists). Nothing is cached per model, so a
// hot-swap is one map write. Every error body is the unified envelope
// {"error":{"code","message"}}.
//
// With Config.Peers set, a model lookup that misses locally pulls the
// envelope from the first peer replica that has it (GET
// /v1/models/{name}) and registers it, so any replica serves any
// model regardless of where its train job ran.
//
// All state is per-Server: tests and embedders can run any number of
// instances in one process.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/discretize"
	"repro/internal/jobs"
	"repro/internal/rcbt"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxBatch       = 1024
	// DefaultRefreshAfter is the auto-refresh debounce: how long a
	// dataset's appends must go quiet before a re-train job fires.
	DefaultRefreshAfter = 150 * time.Millisecond

	// DefaultCacheSize is not used by the server, which keeps no
	// prediction cache. It stays exported because the repository
	// benchmark sizes classify-open's row pool from it (twice this
	// value), and changing it would change that workload.
	DefaultCacheSize = 4096

	// peerFetchTimeout bounds one peer model fetch.
	peerFetchTimeout = 5 * time.Second
)

// NamedDataset is a training dataset registered under a name, so job
// submissions can reference it instead of inlining rows. The
// discretizer, when present, is bundled into models trained on it.
type NamedDataset struct {
	Dataset     *dataset.Dataset
	Discretizer *discretize.Discretizer
}

// Config configures a Server. The zero value of every field means
// "use the default"; one of Models or Jobs is required.
type Config struct {
	// Models maps a serving name (used in request bodies and URLs)
	// to a loaded model.
	Models map[string]*rcbt.Model

	// Jobs, when non-nil, enables the /v1/jobs endpoints on this
	// manager. New reloads models persisted by the manager's earlier
	// succeeded train jobs and hot-registers models from new ones; a
	// server with a Jobs manager may start with zero Models.
	Jobs *jobs.Manager

	// Datasets are the named datasets job submissions may train or
	// mine on ({"dataset": "<name>"} in the request body).
	Datasets map[string]NamedDataset

	// Store, when non-nil, enables the /v1/datasets streaming-ingestion
	// endpoints. Job submissions resolve dataset references through the
	// store first — "{name}" takes the latest snapshot, "{name}@{v}"
	// pins one — falling back to the static Datasets map.
	Store *datastore.Store

	// RefreshAfter is the auto-refresh debounce: once a dataset's
	// appends go quiet for this long, a train job on its latest
	// snapshot is submitted and the resulting model hot-swapped in.
	// 0 means DefaultRefreshAfter; negative disables auto-refresh.
	// Requires both Store and Jobs.
	RefreshAfter time.Duration

	// RefreshSpec is the template for auto-refresh train jobs (K, NL,
	// minsup, timeout...). Kind is forced to "train" and an empty
	// ModelName defaults to the dataset's name.
	RefreshSpec jobs.Spec

	// RequestTimeout bounds the handling of a single request. When it
	// expires mid-request the response is 504 Gateway Timeout.
	RequestTimeout time.Duration

	// MaxBatch caps the rows accepted by
	// /v1/models/{name}/classify/batch; larger requests are rejected
	// with 413 before any work happens.
	MaxBatch int

	// Logger receives one INFO record per request. nil disables
	// request logging.
	Logger *slog.Logger

	// Peers are base URLs ("http://host:port") of replica servers. A
	// model lookup that misses locally is retried against each peer's
	// GET /v1/models/{name}; the fetched envelope is registered and
	// served (pull-on-miss). Empty disables replication.
	Peers []string
}

// Server is an http.Handler serving the classification API.
type Server struct {
	mu       sync.RWMutex // guards models: train jobs register into a live server
	models   map[string]*rcbt.Model
	jobs     *jobs.Manager
	datasets map[string]NamedDataset
	timeout  time.Duration
	maxB     int
	logger   *slog.Logger
	metrics  *metrics
	mux      *http.ServeMux

	store       *datastore.Store
	refresher   *jobs.Refresher
	refreshSpec jobs.Spec

	peers      []string
	peerClient *http.Client
}

// New validates cfg and builds a Server. With a Jobs manager it also
// reloads every model persisted by the manager's earlier succeeded
// train jobs (newest submission wins a name) and hooks new train jobs
// to hot-register their models.
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 && cfg.Jobs == nil && cfg.Store == nil {
		return nil, errors.New("serve: no models configured and no jobs manager")
	}
	s := &Server{
		models:   make(map[string]*rcbt.Model, len(cfg.Models)),
		jobs:     cfg.Jobs,
		datasets: cfg.Datasets,
		store:    cfg.Store,
		timeout:  cfg.RequestTimeout,
		maxB:     cfg.MaxBatch,
		logger:   cfg.Logger,
		metrics:  newMetrics(),
	}
	if s.timeout == 0 {
		s.timeout = DefaultRequestTimeout
	}
	if s.maxB == 0 {
		s.maxB = DefaultMaxBatch
	}
	if len(cfg.Peers) > 0 {
		s.peers = append([]string(nil), cfg.Peers...)
		s.peerClient = &http.Client{Timeout: peerFetchTimeout}
	}
	for name, m := range cfg.Models {
		if err := s.RegisterModel(name, m); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.handle("POST /v1/models/{name}/classify", s.handleClassifyModel)
	s.handle("POST /v1/models/{name}/classify/batch", s.handleBatchModel)
	s.handle("GET /v1/models", s.handleModels)
	s.handle("GET /v1/models/{name}", s.handleModelGet)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	if s.jobs != nil {
		s.handle("POST /v1/jobs", s.handleJobSubmit)
		s.handle("GET /v1/jobs", s.handleJobList)
		s.handle("GET /v1/jobs/{id}", s.handleJobGet)
		s.handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
		s.reloadJobModels()
		s.jobs.SetOnModel(func(name string, m *rcbt.Model) {
			if err := s.RegisterModel(name, m); err != nil && s.logger != nil {
				s.logger.Error("hot-register model", "name", name, "err", err)
			}
		})
	}
	if s.store != nil {
		s.handle("POST /v1/datasets", s.handleDatasetCreate)
		s.handle("GET /v1/datasets", s.handleDatasetList)
		s.handle("GET /v1/datasets/{name}", s.handleDatasetGet)
		s.handle("GET /v1/datasets/{name}/versions/{v}", s.handleDatasetGetVersion)
		s.handle("POST /v1/datasets/{name}/rows", s.handleDatasetAppend)
		if s.jobs != nil && cfg.RefreshAfter >= 0 {
			after := cfg.RefreshAfter
			if after == 0 {
				after = DefaultRefreshAfter
			}
			s.refreshSpec = cfg.RefreshSpec
			s.refresher = jobs.NewRefresher(after, s.fireRefresh)
		}
	}
	return s, nil
}

// RegisterModel atomically adds or replaces a served model; requests
// already classifying against a replaced model finish on the old one.
// A model without a discretizer must have an item universe
// (NumItems > 0) for item-id rows to index.
func (s *Server) RegisterModel(name string, m *rcbt.Model) error {
	if name == "" {
		return errors.New("serve: empty model name")
	}
	if m == nil || m.Classifier == nil {
		return fmt.Errorf("serve: model %q has no classifier", name)
	}
	if m.NumItems < 0 || (m.NumItems == 0 && m.Discretizer == nil) {
		return fmt.Errorf("serve: model %q has no item universe", name)
	}
	s.mu.Lock()
	s.models[name] = m
	s.mu.Unlock()
	return nil
}

// reloadJobModels restores the models persisted by succeeded train
// jobs from previous processes on the same data dir. Jobs() lists in
// submission order, so the newest job holding a name wins. A missing
// or corrupt model file skips that record rather than failing startup:
// the journal survives disk mishaps the models did not.
func (s *Server) reloadJobModels() {
	for _, rec := range s.jobs.Jobs() {
		if rec.State != jobs.StateSucceeded || rec.ModelPath == "" {
			continue
		}
		m, err := rcbt.LoadModelFile(rec.ModelPath)
		if err == nil {
			err = s.RegisterModel(rec.ModelName, m)
		}
		if err != nil && s.logger != nil {
			s.logger.Error("reload job model", "job", rec.ID, "path", rec.ModelPath, "err", err)
		}
	}
}

// ModelNames returns the serving names in sorted order.
func (s *Server) ModelNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ServeHTTP applies the request deadline, in-flight accounting,
// logging and metrics, then dispatches to the route handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}

	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start)
	route := sw.route
	if route == "" {
		route = "unmatched"
	}
	s.metrics.recordRequest(route, sw.code(), elapsed)
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code()),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// handle registers h under pattern ("METHOD /path") on the mux. The
// requests it routes are counted in requests_total under the pattern's
// path, so the label set is the route table no matter what URLs
// clients send; anything the mux answers itself (404, 405) counts as
// "unmatched".
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	_, path, _ := strings.Cut(pattern, " ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.(*statusWriter).route = path // ServeHTTP hands the mux a *statusWriter
		h(w, r)
	})
}

// statusWriter captures the status code for logging and metrics, and
// the route for the requests_total label.
type statusWriter struct {
	http.ResponseWriter
	status int
	route  string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
