package closet

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts CLOSET+ to the engine.Miner interface under the name
// "closet".
type miner struct{}

func (miner) Name() string { return "closet" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	res, err := MineContext(ctx, d, Config{Minsup: opts.Minsup, MaxNodes: opts.MaxNodes})
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return &engine.Result{Closed: res.Closed},
		engine.Stats{Nodes: res.Nodes, Groups: len(res.Closed), Aborted: res.Aborted}, nil
}

func init() { engine.Register(miner{}) }
