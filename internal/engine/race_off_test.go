//go:build !race

package engine

// raceEnabled reports whether the race detector instruments this build.
// Its shadow-memory bookkeeping allocates, so the zero-allocation pins
// skip under -race.
const raceEnabled = false
