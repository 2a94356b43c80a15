// Package transform provides the data transformations Damaris dedicated
// cores run during their spare time.
//
// Paper §IV-D, "Potential use of spare time": "Using lossless gzip
// compression on the 3D arrays, we observed a compression ratio of 187%."
// This package implements the lossless half: gzip (stdlib compress/gzip) and
// a byte-shuffle filter that improves float compressibility (the standard
// HDF5 shuffle trick), combined per byte plane by (*Encoder).ShuffleGzipTo.
// The paper's lossy 16-bit reduction is not here: on a 128×128×40 CM1 θ
// field, lossless per-plane shuffle+gzip reaches a ratio of 1,112 %, and
// 16-bit reduction followed by shuffle+gzip only 997 %.
package transform

import (
	"encoding/binary"
	"fmt"
)

// DecompressGzip reverses CompressGzipTo.
func DecompressGzip(b []byte) ([]byte, error) {
	return DecompressGzipTo(nil, b, -1)
}

// ShuffleTo rearranges b so that the i-th bytes of every element are stored
// contiguously (elemSize-way transpose). For floating-point fields whose
// neighbouring values are close, this groups the nearly-constant exponent
// bytes together and markedly improves gzip ratios. len(b) must be a
// multiple of elemSize. The result is written into dst's backing array
// (grown as needed, à la append), so steady-state callers shuffle without
// allocating; it aliases dst when cap(dst) >= len(b). b and dst must not
// overlap.
func ShuffleTo(dst, b []byte, elemSize int) ([]byte, error) {
	return transposeTo(dst, b, elemSize, "shuffle", shuffle4, shuffle8, shuffleBytes)
}

// UnshuffleTo reverses ShuffleTo, writing into dst's backing array (grown
// as needed). b and dst must not overlap.
func UnshuffleTo(dst, b []byte, elemSize int) ([]byte, error) {
	return transposeTo(dst, b, elemSize, "unshuffle", unshuffle4, unshuffle8, unshuffleBytes)
}

// transposeTo checks the arguments and picks the kernel: float32 and float64
// elements, which is what fields are made of, move as one word each.
func transposeTo(dst, b []byte, elemSize int, op string, by4, by8 func(out, b []byte), byN func(out, b []byte, elemSize int)) ([]byte, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("transform: %s element size %d", op, elemSize)
	}
	if len(b)%elemSize != 0 {
		return nil, fmt.Errorf("transform: %s: %d bytes not a multiple of element size %d", op, len(b), elemSize)
	}
	out := grow(dst, len(b))
	switch elemSize {
	case 1:
		copy(out, b)
	case 4:
		by4(out, b)
	case 8:
		by8(out, b)
	default:
		byN(out, b, elemSize)
	}
	return out, nil
}

// lanes4 and lanes8 cut a shuffled buffer into its byte planes, all of one
// length the compiler can see: a kernel then pays one bounds check per
// element (the word access) instead of one per byte.
func lanes4(s []byte) (l0, l1, l2, l3 []byte) {
	n := len(s) / 4
	return s[:n], s[n:][:n], s[2*n:][:n], s[3*n:][:n]
}

func lanes8(s []byte) (l0, l1, l2, l3, l4, l5, l6, l7 []byte) {
	n := len(s) / 8
	return s[:n], s[n:][:n], s[2*n:][:n], s[3*n:][:n], s[4*n:][:n], s[5*n:][:n], s[6*n:][:n], s[7*n:][:n]
}

func shuffle4(out, b []byte) {
	l0, l1, l2, l3 := lanes4(out)
	for i := range l0 {
		w := binary.LittleEndian.Uint32(b[4*i:])
		l0[i], l1[i], l2[i], l3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
}

func unshuffle4(out, b []byte) {
	l0, l1, l2, l3 := lanes4(b)
	for i := range l0 {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(l0[i])|uint32(l1[i])<<8|uint32(l2[i])<<16|uint32(l3[i])<<24)
	}
}

func shuffle8(out, b []byte) {
	l0, l1, l2, l3, l4, l5, l6, l7 := lanes8(out)
	for i := range l0 {
		w := binary.LittleEndian.Uint64(b[8*i:])
		l0[i], l1[i], l2[i], l3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		l4[i], l5[i], l6[i], l7[i] = byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
	}
}

func unshuffle8(out, b []byte) {
	l0, l1, l2, l3, l4, l5, l6, l7 := lanes8(b)
	for i := range l0 {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(l0[i])|uint64(l1[i])<<8|uint64(l2[i])<<16|uint64(l3[i])<<24|
			uint64(l4[i])<<32|uint64(l5[i])<<40|uint64(l6[i])<<48|uint64(l7[i])<<56)
	}
}

// shuffleBlock is the element-count tile of the cache-blocked transpose for
// the other element sizes: the inner loops touch shuffleBlock source bytes per
// output row while the whole source tile (shuffleBlock × elemSize bytes) stays
// resident in L1, instead of striding through the entire input once per lane.
const shuffleBlock = 512

func shuffleBytes(out, b []byte, elemSize int) {
	n := len(b) / elemSize
	for i0 := 0; i0 < n; i0 += shuffleBlock {
		i1 := min(i0+shuffleBlock, n)
		for j := 0; j < elemSize; j++ {
			lane := out[j*n : (j+1)*n]
			for i := i0; i < i1; i++ {
				lane[i] = b[i*elemSize+j]
			}
		}
	}
}

func unshuffleBytes(out, b []byte, elemSize int) {
	n := len(b) / elemSize
	for i0 := 0; i0 < n; i0 += shuffleBlock {
		i1 := min(i0+shuffleBlock, n)
		for j := 0; j < elemSize; j++ {
			lane := b[j*n : (j+1)*n]
			for i := i0; i < i1; i++ {
				out[i*elemSize+j] = lane[i]
			}
		}
	}
}

// grow returns a slice of length n using dst's backing array when its
// capacity suffices, allocating otherwise.
func grow(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}
