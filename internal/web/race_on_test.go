//go:build race

package web

// raceEnabled reports whether the race detector is active. Under race,
// sync.Pool deliberately drops items at random (to surface races), so
// the pooled wire buffers' allocation pins are meaningless and skipped.
const raceEnabled = true
