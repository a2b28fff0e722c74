package carpenter

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts CARPENTER to the engine.Miner interface under the name
// "carpenter".
type miner struct{}

func (miner) Name() string { return "carpenter" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	cfg := Config{
		Minsup:        opts.Minsup,
		MaxNodes:      opts.MaxNodes,
		Progress:      opts.Progress,
		ProgressEvery: opts.ProgressEvery,
	}
	res, err := MineContext(ctx, d, cfg)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	stats := res.Stats
	stats.Aborted = stats.Aborted || res.Aborted
	return &engine.Result{Closed: res.Closed}, stats, nil
}

func init() { engine.Register(miner{}) }
