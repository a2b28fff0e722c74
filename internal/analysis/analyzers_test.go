package analysis

import "testing"

// Each fixture contains positive hits (// want) plus allowlisted and
// clean negatives; runFixture enforces exact agreement.

func TestBitsetAliasFixture(t *testing.T) {
	runFixture(t, BitsetAliasAnalyzer, "bitsetalias",
		"repro/internal/analysis/testdata/src/bitsetalias")
}

func TestFloatCmpFixture(t *testing.T) {
	runFixture(t, FloatCmpAnalyzer, "floatcmp",
		"repro/internal/analysis/testdata/src/floatcmp")
}

func TestPanicHygieneFixture(t *testing.T) {
	runFixture(t, PanicHygieneAnalyzer, "panichygiene",
		"repro/internal/analysis/testdata/src/panichygiene")
}

func TestUncheckedErrFixture(t *testing.T) {
	// Loaded under a synthetic cmd/ path so the fixture is in scope.
	runFixture(t, UncheckedErrAnalyzer, "uncheckederr",
		"repro/cmd/vetsuite-fixture-uncheckederr")
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer, "ctxflow",
		"repro/internal/analysis/testdata/src/ctxflow")
}

// TestCtxFlowMainExemption: the same Background() call that is a
// finding in a library package is clean in package main.
func TestCtxFlowMainExemption(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer, "ctxflowmain",
		"repro/internal/analysis/testdata/src/ctxflowmain")
}

func TestSentinelWrapFixture(t *testing.T) {
	runFixture(t, SentinelWrapAnalyzer, "sentinelwrap",
		"repro/internal/analysis/testdata/src/sentinelwrap")
}

// TestAllocFreeFixture drives the analyzer with the compiler's real
// escape diagnostics for the fixture package.
func TestAllocFreeFixture(t *testing.T) {
	runFixtureWith(t, AllocFreeAnalyzer, "allocfree",
		"repro/internal/analysis/testdata/src/allocfree",
		func(t *testing.T, f *Facts) {
			root, err := FindModuleRoot(".")
			if err != nil {
				t.Fatal(err)
			}
			esc, err := ComputeEscapes(root, "./internal/analysis/testdata/src/allocfree")
			if err != nil {
				t.Fatalf("ComputeEscapes: %v", err)
			}
			f.Escapes = esc
		})
}

func TestUncheckedErrScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/cmd/topkrgs":         true,
		"repro/cmd/vetsuite":        true,
		"repro/internal/bench":      true,
		"repro/internal/report":     true,
		"repro/internal/serve":      true,
		"repro/internal/atomicfile": true,
		"repro/internal/core":       false,
		"repro/internal/benchmark":  false,
		"repro/internal/served":     false,
	} {
		if got := uncheckedErrScope(path); got != want {
			t.Errorf("uncheckedErrScope(%q) = %v, want %v", path, got, want)
		}
	}
}
