package mpi

import (
	"encoding/binary"
	"math"
)

// Conversion helpers between typed numeric slices and the byte payloads
// moved over the interconnect or stored in shared memory. Little-endian
// layout throughout, matching the DSF on-disk format.

// Float32sToBytes encodes xs as little-endian bytes.
func Float32sToBytes(xs []float32) []byte {
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return b
}

// BytesToFloat32s decodes little-endian bytes into float32s. len(b) must be
// a multiple of 4.
func BytesToFloat32s(b []byte) []float32 {
	xs := make([]float32, len(b)/4)
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// BytesToFloat64s decodes little-endian bytes into float64s. len(b) must be
// a multiple of 8.
func BytesToFloat64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}
