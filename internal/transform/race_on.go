//go:build race

package transform

// poison zeroes an Encoder's shuffle scratch on its way back to encoderPool:
// bytes a caller still reads through it then show as a round trip mismatch.
func poison(b []byte) { clear(b) }
