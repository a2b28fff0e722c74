// Command loadgen drives the batch classification read path under
// load and archives the latency/throughput sweep as BENCH_serving.json.
//
// By default it spins up an in-process rcbtserved instance (a model
// trained on the PC synth profile, listening on 127.0.0.1:0), sweeps
// batch sizes in closed-loop mode (workers issuing requests back to
// back) and, with -qps, in open-loop mode (fixed arrival rate, so
// queueing delay lands in the measured tail), then writes the points
// to -out. Point -addr at a running server to load-test a real
// deployment instead.
//
// With -gate R the previous contents of -out are read first and the
// run fails when any (mode, batch) cell's p99 latency exceeds R times
// its archived value — the CI no-regression gate for the read path.
//
// Usage:
//
//	loadgen [-addr URL] [-scale N] [-batches 1,16,64,256]
//	        [-requests N] [-concurrency N] [-qps N]
//	        [-out BENCH_serving.json] [-gate 1.5]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running server (default: spin up an in-process one)")
	model := flag.String("model", "", "model whose batch route is loaded (default: the server's single model)")
	scale := flag.Int("scale", 30, "gene-count divisor for the in-process fixture's PC profile")
	batches := flag.String("batches", "1,16,64,256", "comma-separated batch sizes to sweep")
	requests := flag.Int("requests", 200, "requests per (mode, batch) point")
	concurrency := flag.Int("concurrency", 4, "closed-loop worker count")
	qps := flag.Float64("qps", 0, "open-loop arrival rate per batch size (0 = closed-loop only)")
	out := flag.String("out", "BENCH_serving.json", "archive file for the sweep points")
	gate := flag.Float64("gate", 0, "fail when a cell's p99 exceeds this ratio of the archived baseline (0 = no gate)")
	timeout := flag.Duration("timeout", 10*time.Minute, "abort the whole run after this long")
	flag.Parse()

	if err := run(*addr, *model, *scale, *batches, *requests, *concurrency, *qps, *out, *gate, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, model string, scale int, batches string, requests, concurrency int, qps float64, out string, gate float64, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	cfg := bench.ServingConfig{
		Model:       model,
		Requests:    requests,
		Concurrency: concurrency,
		TargetQPS:   qps,
	}
	for _, b := range strings.Split(batches, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(b))
		if err != nil || v <= 0 {
			return fmt.Errorf("bad -batches entry %q", b)
		}
		cfg.Batches = append(cfg.Batches, v)
	}

	// Read the baseline before the sweep overwrites the archive.
	var baseline []bench.ServingPoint
	if gate > 0 {
		f, err := os.Open(out)
		if err != nil {
			if !os.IsNotExist(err) {
				return err
			}
			fmt.Fprintf(os.Stderr, "loadgen: no baseline at %s, gate records only\n", out)
		} else {
			err := json.NewDecoder(f).Decode(&baseline)
			_ = f.Close()
			if err != nil {
				return fmt.Errorf("baseline %s: %w", out, err)
			}
		}
	}

	if addr == "" {
		// In-process fixture: a real listener on a loopback port, so the
		// measured path includes the full TCP + JSON stack.
		fmt.Fprintf(os.Stderr, "loadgen: training in-process fixture (PC profile, scale %d)...\n", scale)
		srv, rows, err := bench.ServingFixture(scale)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)  // vetsuite:allow uncheckederr -- Serve returns ErrServerClosed on the deferred Close
		defer hs.Close() // vetsuite:allow uncheckederr -- best-effort shutdown at exit
		cfg.BaseURL = "http://" + ln.Addr().String()
		cfg.Rows = rows
	} else {
		cfg.BaseURL = strings.TrimRight(addr, "/")
		// Against an external server the row pool must come from the
		// model's own universe; reuse the fixture's profile shape.
		_, rows, err := bench.ServingFixture(scale)
		if err != nil {
			return err
		}
		cfg.Rows = rows
	}

	pts, err := bench.ServingLoad(ctx, os.Stdout, cfg)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pts); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %d points to %s\n", len(pts), out)

	if gate > 0 && len(baseline) > 0 {
		return bench.ServingGate(os.Stdout, baseline, pts, gate)
	}
	return nil
}
