//go:build !race

package discretize

// raceEnabled reports whether the race detector instruments this build.
// Its instrumentation allocates, so the allocation pin skips under -race.
const raceEnabled = false
