//go:build !race

package jit

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so allocation counts of pooled paths are not stable.
const raceEnabled = false
