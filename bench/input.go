package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"math/rand"
)

// stampEvery is the distance between iteration stamps. It is far below the
// smallest part size, so no two iterations ever share a content-addressed
// part: deleting old parts is safe and dedupe is zero by construction.
// Every workload's variable size is a multiple of it.
const stampEvery = 4096

// subSeed derives an independent stream from the run seed.
func subSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() >> 1)
}

// field fills n bytes with a smooth float32 field, 280 + v + 8·sin(i/600 +
// phase) + N(0, 0.01): neighbouring values share exponent and high mantissa
// bytes, as simulation output does, so shuffle+gzip has something to find.
func field(rng *rand.Rand, v int, n int) []byte {
	out := make([]byte, n)
	phase := rng.Float64() * 2 * math.Pi
	for i := 0; i < n/4; i++ {
		x := 280 + float64(v) + 8*math.Sin(float64(i)/600+phase) + rng.NormFloat64()*0.01
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
	}
	return out
}

// inputs holds every client's variable buffers, [client][variable].
type inputs [][][]byte

// genInputs builds a workload's inputs from the seed alone.
func genInputs(w workload, seed int64) inputs {
	in := make(inputs, clients)
	for c := range in {
		in[c] = make([][]byte, w.Vars)
		for v := range in[c] {
			rng := rand.New(rand.NewSource(subSeed(seed, w.Name, "input", varName(c), varName(v))))
			in[c][v] = field(rng, v, w.VarBytes)
		}
	}
	return in
}

// sha256 digests the inputs in client, variable order.
func (in inputs) sha256() string {
	h := sha256.New()
	for _, vars := range in {
		for _, b := range vars {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stamp writes the iteration number over the first 8 bytes of every 4 KiB
// block.
func stamp(buf []byte, it int64) {
	for off := 0; off < len(buf); off += stampEvery {
		binary.LittleEndian.PutUint64(buf[off:], uint64(it))
	}
}

// matches reports whether got is ref as it was stamped for iteration it.
// ref's own stamp bytes are never read: its owner may be re-stamping it for
// a later iteration while a reader verifies an older chunk.
func matches(got, ref []byte, it int64) bool {
	if len(got) != len(ref) {
		return false
	}
	for off := 0; off < len(ref); off += stampEvery {
		if binary.LittleEndian.Uint64(got[off:]) != uint64(it) ||
			!bytes.Equal(got[off+8:off+stampEvery], ref[off+8:off+stampEvery]) {
			return false
		}
	}
	return true
}
