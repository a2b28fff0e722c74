// Command vetsuite runs the repo-specific static-analysis suite
// (internal/analysis) over the whole module: convention checks (bitset
// clone-before-mutate discipline, rules.CompareConf float-comparison
// policy, panic and unchecked-error hygiene) plus the contract checks
// (vet:allocfree zero-escape proofs, context threading, %w error
// wrapping and errors.Is sentinel matching).
//
// Usage:
//
//	vetsuite [-json] [-list]
//
// Run it anywhere inside the module; it always loads and analyzes every
// package with every analyzer. -list prints the analyzers; -json emits
// the vetsuite-findings/2 report CI archives and diffs against the
// checked-in baseline.
//
// Exit status is 0 when clean, 1 when findings were reported, 2 when
// the suite could not run (load or usage errors) — distinct so CI can
// tell dirty code from a broken checker.
package main

import (
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Stdout, os.Stderr, os.Args[1:]))
}
