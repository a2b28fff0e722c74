//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
