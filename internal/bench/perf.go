package bench

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/engine"
)

// PerfPoint is one miner's cell of the perf trajectory: a
// testing.Benchmark measurement of repeated full mining runs on one
// dataset profile. The derived nodes/sec rate is the number the
// zero-allocation kernel work is tracked against across PRs; allocs/op
// catches steady-state allocation regressions at the whole-miner level.
type PerfPoint struct {
	Dataset     string  `json:"dataset"`
	Miner       string  `json:"miner"`
	Minsup      float64 `json:"minsup"`
	K           int     `json:"k,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Nodes       int     `json:"nodes"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	Groups      int     `json:"groups"`
}

// PerfConfig tunes the trajectory run. Zero fields take the defaults
// below: the fig6 PC profile mined by the three row-enumeration miners.
type PerfConfig struct {
	Scale   Scale
	Dataset string  // profile base name; default "PC"
	Minsup  float64 // relative support; default 0.9
	K       int     // top-k list size for the topk miner; default 10
	Budget  int     // node cap per run (0 = DefaultFig6Config's baseline budget)
	Miners  []string
}

// PerfTrajectory benchmarks every configured miner with
// the testing package's benchmark driver (so ns/op and allocs/op come
// from the same machinery as `go test -bench`), writes a paper-style
// table to w, and returns the points for JSON archiving.
func PerfTrajectory(ctx context.Context, w io.Writer, cfg PerfConfig) ([]PerfPoint, error) {
	if cfg.Dataset == "" {
		cfg.Dataset = "PC"
	}
	if cfg.Minsup == 0 {
		cfg.Minsup = 0.9
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultFig6Config().BaselineBudget
	}
	if len(cfg.Miners) == 0 {
		cfg.Miners = []string{"topk", "farmer", "carpenter"}
	}

	var pr *prepared
	for _, p := range profiles(cfg.Scale) {
		if baseName(p.Name) == cfg.Dataset {
			var err error
			if pr, err = prepare(p); err != nil {
				return nil, err
			}
			break
		}
	}
	if pr == nil {
		return nil, fmt.Errorf("bench: no profile named %q", cfg.Dataset)
	}
	ms := minsupAbs(pr.dTrain, cfg.Minsup)

	header(w, fmt.Sprintf("Perf trajectory on %s (rows=%d items=%d minsup=%.2f)",
		pr.profile.Name, pr.dTrain.NumRows(), pr.dTrain.NumItems(), cfg.Minsup))
	fmt.Fprintf(w, "%-12s %14s %12s %12s %14s\n",
		"miner", "ns/op", "B/op", "allocs/op", "nodes/s")

	var out []PerfPoint
	for _, miner := range cfg.Miners {
		opts := engine.Options{Minsup: ms, MaxNodes: cfg.Budget}
		if miner == "topk" {
			opts.K = cfg.K
		}
		// One reference run supplies node and group counts (identical on
		// every repetition: the enumeration is deterministic).
		res, stats, err := mineVia(ctx, miner, pr.dTrain, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: perf %s: %w", miner, err)
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mineVia(ctx, miner, pr.dTrain, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		groups := len(res.Groups)
		if groups == 0 {
			groups = len(res.Closed)
		}
		pt := PerfPoint{
			Dataset:     pr.profile.Name,
			Miner:       miner,
			Minsup:      cfg.Minsup,
			NsPerOp:     br.NsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			Nodes:       stats.Nodes,
			NodesPerSec: float64(stats.Nodes) * 1e9 / float64(br.NsPerOp()),
			Groups:      groups,
		}
		if miner == "topk" {
			pt.K = cfg.K
		}
		out = append(out, pt)
		fmt.Fprintf(w, "%-12s %14d %12d %12d %14.0f\n",
			miner, pt.NsPerOp, pt.BytesPerOp, pt.AllocsPerOp, pt.NodesPerSec)
	}
	return out, nil
}
