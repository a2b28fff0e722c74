//go:build !race

package lowerbound

// raceEnabled reports whether the race detector instruments this build.
// Its instrumentation allocates and slows the search several-fold, so
// the allocation pins skip under -race and the oracle trims its sweep.
const raceEnabled = false
