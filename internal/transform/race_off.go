//go:build !race

package transform

// poison is the race build's check of the pooled scratch (race_on.go).
func poison([]byte) {}
