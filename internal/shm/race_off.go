//go:build !race

package shm

// poison is the race build's check of released blocks (race_on.go).
func poison([]byte) {}
