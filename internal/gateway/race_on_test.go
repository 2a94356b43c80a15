//go:build race

package gateway

// raceEnabled: the race detector's own bookkeeping allocates, so bytes
// allocated per call mean nothing under it.
const raceEnabled = true
