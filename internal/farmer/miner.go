package farmer

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// miner adapts FARMER to the engine.Miner interface under the name
// "farmer". Options.Variant selects the projected-table engine:
// "" or "bitset", "prefix", "naive".
type miner struct{}

func (miner) Name() string { return "farmer" }

func (miner) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	cfg := Config{
		Minsup:   opts.Minsup,
		Minconf:  opts.Minconf,
		MinChi:   opts.MinChi,
		MaxNodes: opts.MaxNodes,
		Progress: opts.Progress,
	}
	switch opts.Variant {
	case "", "bitset":
		cfg.Engine = EngineBitset
	case "prefix":
		cfg.Engine = EnginePrefix
	case "naive":
		cfg.Engine = EngineNaive
	default:
		return nil, engine.Stats{}, fmt.Errorf("farmer: unknown variant %q", opts.Variant)
	}
	res, err := MineContext(ctx, d, opts.Class, cfg)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	stats := res.Stats
	stats.Aborted = stats.Aborted || res.Aborted
	return &engine.Result{Groups: res.Groups}, stats, nil
}

func init() { engine.Register(miner{}) }
