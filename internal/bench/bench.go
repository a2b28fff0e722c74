// Package bench regenerates every table and figure of the paper's
// evaluation section (Section 6) on the synthetic dataset profiles:
//
//	Table 1  — dataset characteristics after discretization
//	Figure 6 — mining runtime vs minimum support and vs k
//	Table 2  — classification accuracy of all seven methods
//	Figure 7 — RCBT accuracy vs nl
//	Figure 8 — chi-square gene ranks vs rule participation
//	§6.2     — default-class and standby-classifier statistics,
//	           minsup sensitivity sweep
//
// Each experiment writes paper-style rows to an io.Writer and returns
// structured results so tests and the benchrunner CLI share one
// implementation. Absolute times are hardware-specific; the reproduced
// claims are the relative orderings.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/synth"
)

// Scale divides profile gene counts for quick runs (1 = paper scale).
type Scale int

// profiles returns the four dataset profiles at the given scale.
func profiles(scale Scale) []synth.Profile {
	ps := synth.Profiles()
	if scale <= 1 {
		return ps
	}
	for i := range ps {
		ps[i] = synth.Scaled(ps[i], int(scale))
	}
	return ps
}

// prepared bundles one profile's generated and discretized data.
type prepared struct {
	profile synth.Profile
	train   *dataset.Matrix
	test    *dataset.Matrix
	dz      *discretize.Discretizer
	dTrain  *dataset.Dataset
	dTest   *dataset.Dataset
}

// prepare generates and discretizes a profile.
func prepare(p synth.Profile) (*prepared, error) {
	train, test, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		return nil, err
	}
	dTrain, err := dz.Transform(train)
	if err != nil {
		return nil, err
	}
	dTest, err := dz.Transform(test)
	if err != nil {
		return nil, err
	}
	return &prepared{profile: p, train: train, test: test, dz: dz, dTrain: dTrain, dTest: dTest}, nil
}

// minsupAbs converts a relative support to an absolute count over the
// consequent class (label 0).
func minsupAbs(d *dataset.Dataset, frac float64) int {
	return engine.RelativeMinsup(frac, d.ClassCount(0))
}

// timeIt measures fn, returning the elapsed wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// fmtDur renders a duration in seconds for table rows; "DNF" for
// aborted runs.
func fmtDur(d time.Duration, aborted bool) string {
	if aborted {
		return "DNF"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
