package hybrid

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts hybrid column-then-row mining to the engine.Miner
// interface under the name "hybrid".
type miner struct{}

func (miner) Name() string { return "hybrid" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	cfg := Config{
		K:                opts.K,
		Minsup:           opts.Minsup,
		MaxPartitionRows: opts.MaxPartitionRows,
		MaxNodes:         opts.MaxNodes,
		Progress:         opts.Progress,
	}
	res, err := MineContext(ctx, d, opts.Class, cfg)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	stats := res.Stats
	stats.Groups = len(res.Groups)
	return &engine.Result{
		PerRow:     res.PerRow,
		Groups:     res.Groups,
		Partitions: res.Partitions,
	}, stats, nil
}

func init() { engine.Register(miner{}) }
