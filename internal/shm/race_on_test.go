//go:build race

package shm

import "testing"

// A race build poisons a released block wherever it lies, in the first part
// or in a part its reservation allocated: a slice taken before the release
// reads poison after it.
func TestSegmentPoisonsLazyParts(t *testing.T) {
	s, err := NewSegment(256, WithParts(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	var held []Block
	for _, want := range []int64{0, 64, 128} { // the first part, a lazy part, the remainder
		b, err := s.Reserve(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if b.off != want {
			t.Fatalf("block at %d, want %d", b.off, want)
		}
		for i := range b.Data() {
			b.Data()[i] = 1
		}
		held = append(held, b)
	}
	for _, b := range held {
		d := b.Data()
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
		for i, v := range d {
			if v != poisonByte {
				t.Fatalf("byte %d of the released block at %d reads %#x, want poison %#x", i, b.off, v, poisonByte)
			}
		}
	}
}
