//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build.
// Its instrumentation allocates, so the allocation tests skip under -race.
const raceEnabled = false
