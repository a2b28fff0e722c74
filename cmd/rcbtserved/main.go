// Command rcbtserved serves trained RCBT classifiers over HTTP and,
// when given a data directory, runs mining/training jobs
// asynchronously.
//
// Usage:
//
//	rcbtserved [-model name=model.json ...] [-data-dir dir] \
//	    [-dataset name=matrix.txt ...] [-peers url,url,...] \
//	    [-job-workers 2] [-job-queue 64] [-job-timeout 0] \
//	    [-refresh-after 150ms] [-keep-versions 0] \
//	    [-addr :8344] [-timeout 5s] [-max-batch 1024] [-batch-workers 4]
//
// Each -model flag loads one JSON model envelope (written by
// cmd/rcbt -save) under a serving name. At least one of -model or
// -data-dir is required. The server exposes:
//
//	POST /v1/models/{name}/classify        {"values": [...]} or {"items": [...]}
//	POST /v1/models/{name}/classify/batch  {"rows": [{"values": [...]}, ...]}
//	GET  /v1/models                        loaded models and their metadata
//	GET  /v1/models/{name}                 a model's envelope (replication)
//	POST   /v1/jobs                        submit a mine/train job (needs -data-dir)
//	GET    /v1/jobs[/{id}]                 list jobs / fetch one
//	DELETE /v1/jobs/{id}                   cancel a job
//	POST /v1/datasets                      create a streaming dataset (needs -data-dir)
//	POST /v1/datasets/{name}/rows          append rows; triggers a debounced re-train
//	GET  /v1/datasets[/{name}]             list datasets / inspect the latest version
//	GET  /v1/datasets/{name}/versions/{v}  inspect a pinned snapshot version
//	GET  /healthz                          liveness probe
//	GET  /metrics                          Prometheus text exposition
//
// (POST /v1/classify and /v1/classify/batch answer 308 redirects onto
// the model-scoped routes for one release.)
//
// With -data-dir, job records are journaled under <dir>/jobs and
// trained models under <dir>/models; a restarted server lists prior
// jobs and serves their models. Each -dataset flag registers a raw
// expression matrix for job submissions to reference by name: it is
// discretized at startup (entropy-MDL) and models trained on it bundle
// the cuts, so they classify raw expression rows.
//
// -data-dir also enables streaming ingestion: datasets created over
// POST /v1/datasets persist as immutable versioned snapshots under
// <dir>/datasets and survive restarts. Appending rows mints a new
// version, rebuilt from scratch (entropy-MDL cuts refit, rows
// re-discretized), and, after -refresh-after of quiet, re-trains and
// hot-swaps the dataset's model with zero downtime. Job submissions
// reference "{name}" for the latest version or "{name}@{v}" to pin
// one; -keep-versions bounds how many snapshot versions are retained
// per dataset (0 = all; a pinned reference to a pruned version answers
// 409).
//
// -peers names other replicas' base URLs for model replication: a
// model lookup that misses locally is pulled from the first peer that
// has it, so any replica serves any model wherever its train job ran.
// Mining always runs on the node that received the job.
//
// The bound address is printed on startup (useful with -addr :0).
// SIGINT/SIGTERM shut down in order: stop accepting job submissions
// (503), drain in-flight HTTP requests, then cancel running jobs and
// wait for their final journal writes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/discretize"
	"repro/internal/jobs"
	"repro/internal/rcbt"
	"repro/internal/serve"

	// Register every miner so mine jobs can dispatch by name.
	_ "repro/internal/carpenter"
	_ "repro/internal/charm"
	_ "repro/internal/closet"
	_ "repro/internal/core"
	_ "repro/internal/farmer"
	_ "repro/internal/hybrid"
)

// kvFlags collects repeated -model / -dataset name=path pairs.
type kvFlags map[string]string

func (m kvFlags) String() string { return fmt.Sprintf("%v", map[string]string(m)) }

func (m kvFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("duplicate name %q", name)
	}
	m[name] = path
	return nil
}

func main() {
	models := kvFlags{}
	datasets := kvFlags{}
	flag.Var(models, "model", "model to serve as name=path (repeatable)")
	flag.Var(datasets, "dataset", "raw expression matrix jobs may reference as name=path (repeatable, needs -data-dir)")
	addr := flag.String("addr", ":8344", "listen address (use :0 for an ephemeral port)")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max rows per batch request")
	batchWorkers := flag.Int("batch-workers", serve.DefaultBatchWorkers, "concurrent rows per batch request")
	dataDir := flag.String("data-dir", "", "directory for job journals and trained models (enables /v1/jobs)")
	jobWorkers := flag.Int("job-workers", 2, "concurrent jobs")
	jobQueue := flag.Int("job-queue", 64, "max queued jobs")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline (0 = unbounded)")
	refreshAfter := flag.Duration("refresh-after", serve.DefaultRefreshAfter, "quiet period after an append before auto re-train (negative disables)")
	keepVersions := flag.Int("keep-versions", 0, "snapshot versions retained per streaming dataset (0 = all)")
	peersFlag := flag.String("peers", "", "comma-separated replica base URLs to pull models from on a local miss")
	flag.Parse()

	if len(models) == 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "rcbtserved: need at least one -model or a -data-dir")
		flag.Usage()
		os.Exit(2)
	}
	if len(datasets) > 0 && *dataDir == "" {
		fail(errors.New("-dataset requires -data-dir (datasets exist for job submissions)"))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if len(peers) > 0 {
		logger.Info("model replication", "peers", peers)
	}

	loaded := make(map[string]*rcbt.Model, len(models))
	for name, path := range models {
		m, err := loadModel(path)
		if err != nil {
			fail(fmt.Errorf("model %s: %w", name, err))
		}
		loaded[name] = m
		logger.Info("model loaded", "name", name, "path", path,
			"classes", len(m.ClassNames), "items", m.NumItems,
			"discretizer", m.Discretizer != nil)
	}

	named := make(map[string]serve.NamedDataset, len(datasets))
	for name, path := range datasets {
		nd, err := loadDataset(path)
		if err != nil {
			fail(fmt.Errorf("dataset %s: %w", name, err))
		}
		named[name] = nd
		logger.Info("dataset loaded", "name", name, "path", path,
			"rows", nd.Dataset.NumRows(), "items", nd.Dataset.NumItems())
	}

	var mgr *jobs.Manager
	var store *datastore.Store
	if *dataDir != "" {
		var err error
		mgr, err = jobs.Open(context.Background(), jobs.Config{
			DataDir:        *dataDir,
			Workers:        *jobWorkers,
			QueueDepth:     *jobQueue,
			DefaultTimeout: *jobTimeout,
			Logger:         log.New(os.Stderr, "jobs: ", log.LstdFlags),
		})
		if err != nil {
			fail(err)
		}
		store, err = datastore.Open(datastore.Config{
			Dir:          filepath.Join(*dataDir, "datasets"),
			KeepVersions: *keepVersions,
		})
		if err != nil {
			fail(err)
		}
		for _, name := range store.Names() {
			snap, err := store.Get(name)
			if err != nil {
				continue
			}
			logger.Info("streaming dataset recovered", "name", name,
				"version", snap.Version, "rows", len(snap.Dataset.Rows))
		}
	}

	s, err := serve.New(serve.Config{
		Models:         loaded,
		Jobs:           mgr,
		Datasets:       named,
		Store:          store,
		RefreshAfter:   *refreshAfter,
		RequestTimeout: *timeout,
		MaxBatch:       *maxBatch,
		BatchWorkers:   *batchWorkers,
		Logger:         logger,
		Peers:          peers,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// Printed to stdout so scripts (and the CI smoke test) can scrape
	// the bound address when -addr :0 picked an ephemeral port.
	fmt.Printf("rcbtserved listening on %s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "models", s.ModelNames(), "jobs", mgr != nil)

	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		// Shutdown order matters: stop the refresh debouncer (no new
		// auto-train submissions), refuse new job submissions (503 while
		// draining), then cancel running jobs and wait for their final
		// journal writes, then drain in-flight HTTP requests — so a
		// client polling a canceled job can still read its terminal state.
		s.Close()
		if mgr != nil {
			mgr.Drain()
			if err := mgr.Close(); err != nil {
				logger.Error("jobs close", "err", err)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fail(err)
		}
	}
}

func loadModel(path string) (*rcbt.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // vetsuite:allow uncheckederr -- read-only file, nothing buffered to lose
	return rcbt.LoadModel(f)
}

// loadDataset reads a raw expression matrix, fits the entropy-MDL
// discretizer and transforms the matrix into the item dataset jobs
// mine and train on.
func loadDataset(path string) (serve.NamedDataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return serve.NamedDataset{}, err
	}
	defer f.Close() // vetsuite:allow uncheckederr -- read-only file, nothing buffered to lose
	m, err := dataset.ReadMatrix(f)
	if err != nil {
		return serve.NamedDataset{}, err
	}
	dz, err := discretize.FitMatrix(m)
	if err != nil {
		return serve.NamedDataset{}, err
	}
	d, err := dz.Transform(m)
	if err != nil {
		return serve.NamedDataset{}, err
	}
	return serve.NamedDataset{Dataset: d, Discretizer: dz}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcbtserved:", err)
	os.Exit(1)
}
