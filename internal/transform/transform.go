// Package transform provides the data transformations Damaris dedicated
// cores run during their spare time.
//
// Paper §IV-D, "Potential use of spare time": "Using lossless gzip
// compression on the 3D arrays, we observed a compression ratio of 187%.
// When writing data for offline visualization, the floating point precision
// can also be reduced to 16 bits, leading to nearly 600% compression ratio
// when coupling with gzip." This package implements both: gzip (stdlib
// compress/gzip), 16-bit scale-offset precision reduction for float32
// fields, and a byte-shuffle filter that improves float compressibility
// (the standard HDF5 shuffle trick). It also provides min/max chunk
// indexing, one of the "smart actions" (§III-A) dedicated cores can run.
package transform

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// CompressGzip compresses b at the given gzip level. The level follows
// compress/gzip exactly: gzip.HuffmanOnly (-2), gzip.DefaultCompression (-1),
// gzip.NoCompression (0) and 1..9 are all accepted and mean what the stdlib
// says they mean. Levels outside that range are an error.
func CompressGzip(b []byte, level int) ([]byte, error) {
	return CompressGzipTo(nil, b, level)
}

// DecompressGzip reverses CompressGzip.
func DecompressGzip(b []byte) ([]byte, error) {
	return DecompressGzipTo(nil, b)
}

// Ratio returns the compression ratio in the paper's convention:
// raw/compressed expressed as a percentage (187% means the compressed form
// is 1.87× smaller). Returns 0 when compressed is empty.
func Ratio(rawSize, compressedSize int) float64 {
	if compressedSize <= 0 {
		return 0
	}
	return 100 * float64(rawSize) / float64(compressedSize)
}

// Shuffle rearranges b so that the i-th bytes of every element are stored
// contiguously (elemSize-way transpose). For floating-point fields whose
// neighbouring values are close, this groups the nearly-constant exponent
// bytes together and markedly improves gzip ratios. len(b) must be a
// multiple of elemSize.
func Shuffle(b []byte, elemSize int) ([]byte, error) {
	return ShuffleTo(nil, b, elemSize)
}

// ShuffleTo is Shuffle writing into dst's backing array (grown as needed, à
// la append), so steady-state callers shuffle without allocating. It returns
// the result slice, which aliases dst when cap(dst) >= len(b). b and dst
// must not overlap.
func ShuffleTo(dst, b []byte, elemSize int) ([]byte, error) {
	return transposeTo(dst, b, elemSize, "shuffle", shuffle4, shuffle8, shuffleBytes)
}

// Unshuffle reverses Shuffle.
func Unshuffle(b []byte, elemSize int) ([]byte, error) {
	return UnshuffleTo(nil, b, elemSize)
}

// UnshuffleTo is Unshuffle writing into dst's backing array (grown as
// needed). b and dst must not overlap.
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

// reducedMagic guards Reduced16 payloads.
var reducedMagic = [4]byte{'R', 'D', '1', '6'}

// ReduceFloat32To16 quantizes a float32 field to 16 bits per element using
// linear scale-offset coding: x ≈ min + q/65535*(max-min). The worst-case
// absolute error is (max-min)/131070 (half a quantum). The returned payload
// is self-describing (magic, count, min, max, little-endian uint16 data) so
// it can round-trip through RestoreFloat32From16.
//
// Non-finite inputs are clamped into the finite range observed; an all-NaN
// or empty field encodes min=max=0.
func ReduceFloat32To16(xs []float32) []byte {
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, x := range xs {
		if isFinite32(x) {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if lo > hi { // no finite values
		lo, hi = 0, 0
	}
	out := make([]byte, 4+8+4+4+2*len(xs))
	copy(out[0:4], reducedMagic[:])
	binary.LittleEndian.PutUint64(out[4:], uint64(len(xs)))
	binary.LittleEndian.PutUint32(out[12:], math.Float32bits(lo))
	binary.LittleEndian.PutUint32(out[16:], math.Float32bits(hi))
	span := float64(hi) - float64(lo)
	for i, x := range xs {
		var q uint16
		if span > 0 {
			v := x
			if !isFinite32(v) || v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			q = uint16(math.Round((float64(v) - float64(lo)) / span * 65535))
		}
		binary.LittleEndian.PutUint16(out[20+2*i:], q)
	}
	return out
}

// RestoreFloat32From16 decodes a payload produced by ReduceFloat32To16.
func RestoreFloat32From16(b []byte) ([]float32, error) {
	if len(b) < 20 || !bytes.Equal(b[0:4], reducedMagic[:]) {
		return nil, fmt.Errorf("transform: not a 16-bit reduced payload")
	}
	// The count is checked against the length, not 20+2n against it: that sum
	// wraps around for a count past 2^63.
	n := binary.LittleEndian.Uint64(b[4:])
	if (len(b)-20)%2 != 0 || n != uint64(len(b)-20)/2 {
		return nil, fmt.Errorf("transform: reduced payload length %d does not match count %d", len(b), n)
	}
	lo := math.Float32frombits(binary.LittleEndian.Uint32(b[12:]))
	hi := math.Float32frombits(binary.LittleEndian.Uint32(b[16:]))
	span := float64(hi) - float64(lo)
	xs := make([]float32, n)
	for i := range xs {
		q := binary.LittleEndian.Uint16(b[20+2*i:])
		xs[i] = float32(float64(lo) + float64(q)/65535*span)
	}
	return xs, nil
}

// MaxReductionError returns the worst-case absolute error of 16-bit
// reduction for a field spanning [lo, hi].
func MaxReductionError(lo, hi float32) float64 {
	return (float64(hi) - float64(lo)) / 65535 / 2 * 1.0000001 // half quantum + fp slack
}

func isFinite32(x float32) bool {
	return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
}

// MinMax is one index record covering a chunk of elements.
type MinMax struct {
	Offset int // element offset of the chunk
	Count  int // elements in the chunk
	Min    float32
	Max    float32
}

// IndexFloat32 computes a min/max index over consecutive chunks of
// chunkElems elements. Such indexes let dedicated cores answer range queries
// ("which blocks contain updraft > 30 m/s?") without touching the file
// system — one of the paper's "smart actions" enabled by keeping enriched
// datasets rather than raw bytes.
func IndexFloat32(xs []float32, chunkElems int) ([]MinMax, error) {
	if chunkElems <= 0 {
		return nil, fmt.Errorf("transform: index chunk size %d", chunkElems)
	}
	var idx []MinMax
	for off := 0; off < len(xs); off += chunkElems {
		end := off + chunkElems
		if end > len(xs) {
			end = len(xs)
		}
		mm := MinMax{Offset: off, Count: end - off, Min: xs[off], Max: xs[off]}
		for _, x := range xs[off+1 : end] {
			if x < mm.Min {
				mm.Min = x
			}
			if x > mm.Max {
				mm.Max = x
			}
		}
		idx = append(idx, mm)
	}
	return idx, nil
}

// QueryIndex returns the chunks whose [Min,Max] range intersects [lo,hi].
func QueryIndex(idx []MinMax, lo, hi float32) []MinMax {
	var out []MinMax
	for _, mm := range idx {
		if mm.Max >= lo && mm.Min <= hi {
			out = append(out, mm)
		}
	}
	return out
}
