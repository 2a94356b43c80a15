//go:build !race

package dsf

// poison is the race build's check of the pooled buffers (race_on.go).
func poison([]byte) {}
