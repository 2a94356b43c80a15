//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
