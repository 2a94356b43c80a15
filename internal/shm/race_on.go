//go:build race

package shm

// poisonByte fills released blocks in race-detector builds.
const poisonByte = 0xDB

// poison overwrites a block's bytes as it is released, so a slice taken
// before the release and read after it no longer holds the data and fails
// whatever check reads it (a CRC, a golden, a byte comparison).
func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = poisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
