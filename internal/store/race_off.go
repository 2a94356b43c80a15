//go:build !race

package store

// checkPut is the race build's check of the WritePinned contract (race_on.go).
func (*ObjStore) checkPut(*objPart, Part) error { return nil }

// poison is the race build's check of the pooled manifest buffers (race_on.go).
func poison([]byte) {}
