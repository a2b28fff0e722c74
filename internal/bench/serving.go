package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rcbt"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ServingPoint is one cell of the serving load sweep: latency
// percentiles and throughput of the batch classification endpoint at
// one (mode, batch size) combination. The archived points
// (BENCH_serving.json) are the read path's perf trajectory across PRs;
// the p99 column is the regression-gated number.
type ServingPoint struct {
	Mode        string  `json:"mode"`  // "closed" or "open"
	Batch       int     `json:"batch"` // rows per request
	Concurrency int     `json:"concurrency,omitempty"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	Requests    int     `json:"requests"`
	Rows        int     `json:"rows"`
	Errors      int     `json:"errors"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

// ServingConfig tunes the load sweep. Zero fields take the defaults
// noted inline.
type ServingConfig struct {
	// BaseURL is the server under load, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// Model names the model whose batch route is loaded,
	// /v1/models/{Model}/classify/batch. "" resolves the server's only
	// model from GET /v1/models and fails unless exactly one is
	// registered.
	Model string
	// Rows is the item-id row pool requests draw from, round-robin, so
	// consecutive requests carry distinct rows (a realistic mix of
	// prediction-cache hits and rule-sweep misses).
	Rows [][]int
	// Batches are the request sizes to sweep (default 1, 16, 64, 256).
	Batches []int
	// Requests per point (default 200).
	Requests int
	// Concurrency is the closed-loop worker count (default 4).
	Concurrency int
	// TargetQPS, when > 0, adds an open-loop pass per batch size:
	// requests fire at this arrival rate regardless of completions, the
	// way real traffic does, so queueing delay shows up in the tail.
	TargetQPS float64
	// Bodies is the number of distinct pre-encoded request bodies per
	// batch size (default 32). Pre-encoding keeps client-side JSON
	// marshalling out of the measured latencies.
	Bodies int
}

func (cfg *ServingConfig) applyDefaults() {
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{1, 16, 64, 256}
	}
	if cfg.Requests == 0 {
		cfg.Requests = 200
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 4
	}
	if cfg.Bodies == 0 {
		cfg.Bodies = 32
	}
}

// ServingLoad drives the batch classification endpoint through the
// configured sweep — closed-loop always, open-loop when TargetQPS is
// set — writes a paper-style table to w, and returns the points for
// JSON archiving.
func ServingLoad(ctx context.Context, w io.Writer, cfg ServingConfig) ([]ServingPoint, error) {
	cfg.applyDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("bench: serving load needs a BaseURL")
	}
	if len(cfg.Rows) == 0 {
		return nil, fmt.Errorf("bench: serving load needs a row pool")
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}
	defer client.CloseIdleConnections()

	if cfg.Model == "" {
		name, err := onlyModel(ctx, client, cfg.BaseURL)
		if err != nil {
			return nil, err
		}
		cfg.Model = name
	}
	target := cfg.BaseURL + "/v1/models/" + url.PathEscape(cfg.Model) + "/classify/batch"

	header(w, fmt.Sprintf("Serving load: %s (pool=%d rows, %d req/point)",
		cfg.BaseURL, len(cfg.Rows), cfg.Requests))
	fmt.Fprintf(w, "%-8s %7s %6s %10s %9s %9s %9s %9s %7s\n",
		"mode", "batch", "conc", "rows/s", "p50 ms", "p95 ms", "p99 ms", "max ms", "errors")

	var out []ServingPoint
	next := 0 // row-pool cursor, advanced across points for variety
	for _, batch := range cfg.Batches {
		bodies := make([][]byte, cfg.Bodies)
		for i := range bodies {
			var req serve.BatchRequest
			for r := 0; r < batch; r++ {
				req.Rows = append(req.Rows, serve.BatchRow{Items: cfg.Rows[next%len(cfg.Rows)]})
				next++
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}

		pt, err := runClosed(ctx, client, target, cfg, batch, bodies)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
		printServingPoint(w, pt)

		if cfg.TargetQPS > 0 {
			pt, err := runOpen(ctx, client, target, cfg, batch, bodies)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			printServingPoint(w, pt)
		}
	}
	return out, nil
}

// onlyModel returns the name of the server's single model, read from
// GET /v1/models.
func onlyModel(ctx context.Context, client *http.Client, baseURL string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/models", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", fmt.Errorf("bench: list models: %w", err)
	}
	var list struct {
		Models []serve.ModelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("bench: list models: status %d", resp.StatusCode)
	}
	if err != nil {
		return "", fmt.Errorf("bench: list models: %w", err)
	}
	if len(list.Models) != 1 {
		return "", fmt.Errorf("bench: server has %d models, want exactly one or a ServingConfig.Model", len(list.Models))
	}
	return list.Models[0].Name, nil
}

func printServingPoint(w io.Writer, pt ServingPoint) {
	fmt.Fprintf(w, "%-8s %7d %6d %10.0f %9.3f %9.3f %9.3f %9.3f %7d\n",
		pt.Mode, pt.Batch, pt.Concurrency, pt.RowsPerSec,
		pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.MaxMs, pt.Errors)
}

// doRequest posts one pre-encoded batch and returns its latency.
func doRequest(ctx context.Context, client *http.Client, target string, body []byte) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return time.Since(start), nil
}

// runClosed measures a closed loop: Concurrency workers issue requests
// back to back, so the offered load adapts to the server's pace and
// the percentiles measure pure service time plus connection reuse.
func runClosed(ctx context.Context, client *http.Client, target string, cfg ServingConfig, batch int, bodies [][]byte) (ServingPoint, error) {
	// Untimed warm-up: grow server arenas, open connections.
	for i := 0; i < cfg.Concurrency; i++ {
		if _, err := doRequest(ctx, client, target, bodies[i%len(bodies)]); err != nil {
			return ServingPoint{}, fmt.Errorf("bench: warm-up request: %w", err)
		}
	}

	lats := make([]time.Duration, cfg.Requests)
	var errs atomic.Int64
	var nextReq atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextReq.Add(1) - 1)
				if i >= cfg.Requests || ctx.Err() != nil {
					return
				}
				lat, err := doRequest(ctx, client, target, bodies[i%len(bodies)])
				if err != nil {
					errs.Add(1)
					continue
				}
				lats[i] = lat
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return ServingPoint{}, err
	}
	pt := summarize(lats, int(errs.Load()), batch, cfg.Requests, elapsed)
	pt.Mode = "closed"
	pt.Concurrency = cfg.Concurrency
	return pt, nil
}

// runOpen measures an open loop: requests fire on a fixed schedule at
// TargetQPS whether or not earlier ones finished, so a server falling
// behind accumulates queueing delay in the measured tail instead of
// silently throttling the generator.
func runOpen(ctx context.Context, client *http.Client, target string, cfg ServingConfig, batch int, bodies [][]byte) (ServingPoint, error) {
	interval := time.Duration(float64(time.Second) / cfg.TargetQPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	lats := make([]time.Duration, cfg.Requests)
	var errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
fire:
	for i := 0; i < cfg.Requests; i++ {
		select {
		case <-ctx.Done():
			break fire
		case <-ticker.C:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lat, err := doRequest(ctx, client, target, bodies[i%len(bodies)])
				if err != nil {
					errs.Add(1)
					return
				}
				lats[i] = lat
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return ServingPoint{}, err
	}
	pt := summarize(lats, int(errs.Load()), batch, cfg.Requests, elapsed)
	pt.Mode = "open"
	pt.TargetQPS = cfg.TargetQPS
	return pt, nil
}

func summarize(lats []time.Duration, errors, batch, requests int, elapsed time.Duration) ServingPoint {
	ok := make([]time.Duration, 0, len(lats))
	for _, l := range lats {
		if l > 0 {
			ok = append(ok, l)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	pct := func(q float64) float64 {
		if len(ok) == 0 {
			return 0
		}
		return float64(ok[int(q*float64(len(ok)-1))].Nanoseconds()) / 1e6
	}
	pt := ServingPoint{
		Batch:      batch,
		Requests:   requests,
		Rows:       len(ok) * batch,
		Errors:     errors,
		ElapsedSec: elapsed.Seconds(),
		RowsPerSec: float64(len(ok)*batch) / elapsed.Seconds(),
		P50Ms:      pct(0.50),
		P95Ms:      pct(0.95),
		P99Ms:      pct(0.99),
	}
	if n := len(ok); n > 0 {
		pt.MaxMs = float64(ok[n-1].Nanoseconds()) / 1e6
	}
	return pt
}

// ServingFixture trains a serving-shaped RCBT model — the PC profile
// with a 4x clinical cohort, the shape the rule-major kernel benchmark
// uses — and returns a ready in-process Server plus an item-id row
// pool drawn from its test split.
func ServingFixture(scale int) (*serve.Server, [][]int, error) {
	p := synth.Scaled(synth.PC(), scale)
	p.Train1 *= 4
	p.Train0 *= 4
	p.Test1 = 600
	p.Test0 = 600
	pr, err := prepare(p)
	if err != nil {
		return nil, nil, err
	}
	clf, err := rcbt.Train(pr.dTrain, rcbt.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	m := &rcbt.Model{
		Classifier:  clf,
		Discretizer: pr.dz,
		ClassNames:  pr.dTrain.ClassNames,
		NumItems:    pr.dTrain.NumItems(),
		Meta:        rcbt.Meta{Dataset: p.Name, TrainRows: pr.dTrain.NumRows()},
	}
	s, err := serve.New(serve.Config{Models: map[string]*rcbt.Model{"bench": m}})
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]int, pr.dTest.NumRows())
	for r := range rows {
		rows[r] = pr.dTest.Rows[r]
	}
	return s, rows, nil
}

// ServingGate compares current points against a baseline by
// (mode, batch) and fails when any cell's p99 exceeds maxRatio times
// its baseline p99. Cells present on only one side are reported and
// skipped — a new batch size must not fail the gate retroactively.
func ServingGate(w io.Writer, baseline, current []ServingPoint, maxRatio float64) error {
	base := make(map[string]ServingPoint, len(baseline))
	for _, pt := range baseline {
		base[fmt.Sprintf("%s/%d", pt.Mode, pt.Batch)] = pt
	}
	var failures []string
	for _, pt := range current {
		key := fmt.Sprintf("%s/%d", pt.Mode, pt.Batch)
		b, ok := base[key]
		if !ok {
			fmt.Fprintf(w, "serving gate: %s has no baseline, skipping\n", key)
			continue
		}
		if b.P99Ms <= 0 {
			continue
		}
		ratio := pt.P99Ms / b.P99Ms
		status := "ok"
		if ratio > maxRatio {
			status = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s: p99 %.3fms vs baseline %.3fms (%.2fx > %.2fx)",
					key, pt.P99Ms, b.P99Ms, ratio, maxRatio))
		}
		fmt.Fprintf(w, "serving gate: %-12s p99 %8.3fms baseline %8.3fms ratio %.2fx %s\n",
			key, pt.P99Ms, b.P99Ms, ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("serving p99 regression:\n  %s", joinLines(failures))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
