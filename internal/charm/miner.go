package charm

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts CHARM to the engine.Miner interface under the name
// "charm".
type miner struct{}

func (miner) Name() string { return "charm" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	res, err := MineContext(ctx, d, Config{Minsup: opts.Minsup, MaxNodes: opts.MaxNodes})
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return &engine.Result{Closed: res.Closed},
		engine.Stats{Nodes: res.Nodes, Groups: len(res.Closed), Aborted: res.Aborted}, nil
}

func init() { engine.Register(miner{}) }
