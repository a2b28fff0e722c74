package core

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts MineTopkRGS to the engine.Miner interface under the name
// "topk".
type miner struct{}

func (miner) Name() string { return "topk" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	cfg := DefaultConfig(opts.Minsup, opts.K)
	cfg.MaxNodes = opts.MaxNodes
	cfg.MinConf = opts.Minconf
	cfg.Progress = opts.Progress
	if opts.DisableSeedInit {
		cfg.SeedInit = false
	}
	if opts.DisableTopKPruning {
		cfg.TopKPruning = false
	}
	if opts.DisableBackwardPruning {
		cfg.BackwardPruning = false
	}
	if opts.DisableRowSort {
		cfg.SortRowsByItemCount = false
	}
	if opts.DisableDynamicMinsup {
		cfg.DynamicMinsup = false
	}
	res, err := MineContext(ctx, d, opts.Class, cfg)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return &engine.Result{
		PerRow:           res.PerRow,
		Groups:           res.Groups,
		NumFrequentItems: res.NumFrequentItems,
	}, res.Stats, nil
}

func init() { engine.Register(miner{}) }
