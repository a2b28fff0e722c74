// Package irg implements the IRG classifier of [6]: the same rule-list
// construction as CBA but built directly from upper-bound rules of
// interesting rule groups (no lower-bound search), with a minimum
// confidence threshold.
package irg

import (
	"fmt"

	"repro/internal/cba"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// Config controls IRG training.
type Config struct {
	// MinsupFrac is the per-class relative minimum support (paper: 0.7).
	MinsupFrac float64
	// Minconf filters rule groups (paper: 0.8).
	Minconf float64
	// K is the number of covering groups mined per row; 1 matches the
	// paper's comparison setup.
	K int
}

// DefaultConfig mirrors the paper's IRG setup.
func DefaultConfig() Config { return Config{MinsupFrac: 0.7, Minconf: 0.8, K: 1} }

// Classifier is an IRG rule list (upper-bound rules) with a default
// class. It embeds the CBA prediction behaviour.
type Classifier struct {
	cba.Classifier
}

// Train builds an IRG classifier from a discretized training dataset.
func Train(d *dataset.Dataset, cfg Config) (*Classifier, error) {
	if cfg.MinsupFrac <= 0 || cfg.MinsupFrac > 1 {
		return nil, fmt.Errorf("irg: MinsupFrac %v outside (0,1]", cfg.MinsupFrac)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("irg: K must be >= 1, got %d", cfg.K)
	}
	var pool []*rules.Rule
	for cls := 0; cls < d.NumClasses(); cls++ {
		label := dataset.Label(cls)
		n := d.ClassCount(label)
		if n == 0 {
			continue
		}
		res, err := core.Mine(d, label, core.DefaultConfig(engine.RelativeMinsup(cfg.MinsupFrac, n), cfg.K))
		if err != nil {
			return nil, fmt.Errorf("irg: mining class %s: %w", d.ClassNames[cls], err)
		}
		for _, g := range res.Groups {
			if g.Confidence >= cfg.Minconf {
				pool = append(pool, g.Upper())
			}
		}
	}
	rules.SortCBA(pool)
	selected, def := cba.SelectRules(d, pool)
	return &Classifier{cba.Classifier{Rules: selected, Default: def, NumItems: d.NumItems()}}, nil
}
