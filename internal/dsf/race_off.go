//go:build !race

package dsf

// poison is the race build's check of the pooled read buffers (race_on.go).
func poison([]byte) {}
