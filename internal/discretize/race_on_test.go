//go:build race

package discretize

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
