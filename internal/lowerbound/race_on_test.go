//go:build race

package lowerbound

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
