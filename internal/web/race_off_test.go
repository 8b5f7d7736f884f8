//go:build !race

package web

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
