package dsf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"damaris/internal/layout"
	"damaris/internal/mpi"
)

// fuzzSeedFile builds a small valid DSF stream in memory.
func fuzzSeedFile(tb testing.TB, codec Codec) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	w.SetAttribute("writer", "fuzz-seed")
	lay := layout.MustNew(layout.Float32, 32)
	xs := make([]float32, 32)
	for i := range xs {
		xs[i] = float32(i) * 0.25
	}
	for it := int64(0); it < 2; it++ {
		meta := ChunkMeta{Name: "theta", Iteration: it, Source: 3, Layout: lay, Codec: codec}
		if err := w.WriteChunk(meta, mpi.Float32sToBytes(xs)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTOCDecode drives OpenReaderAt — header, footer and TOC decoding —
// with arbitrary bytes. The invariant is totality: corrupt input must
// produce an error, never a panic, a huge TOC-driven allocation, or a
// reader whose chunks lie outside the stream. On inputs that do open,
// every accessor must succeed and return what encoding/gob decodes from
// their TOC, every global block must be Valid, and ReadChunk may fail only
// a checksum or a payload decode.
func FuzzTOCDecode(f *testing.F) {
	for _, codec := range []Codec{None, Gzip, ShuffleGzip} {
		valid := fuzzSeedFile(f, codec)
		f.Add(valid)
		// Truncations and bit flips around the structurally interesting
		// offsets: header, mid-payload, footer.
		f.Add(valid[:8])
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(valid)-1])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-20] ^= 0xff // TOC offset field
		f.Add(flipped)
		reindexed := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(reindexed[len(reindexed)-24:], 1<<60) // absurd TOC offset
		f.Add(reindexed)
	}
	f.Add([]byte("DSFv0002"))
	f.Add([]byte("DSFINDEX"))
	// Global blocks and attributes, valid and not.
	f.Add(tocStream(oneChunkTOC([]int64{0, 4}, []int64{2, 4})))
	f.Add(tocStream(oneChunkTOC([]int64{0}, []int64{0})))
	metas, datas := scratchChunks(5, 2, true)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	w.SetAttribute("unit", "K")
	w.SetAttribute("writer", "fuzz-seed")
	if err := w.WriteChunks(metas, datas, nil); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // rejected: exactly what corrupt input should get
		}
		foot := data[len(data)-24:]
		tocOff := binary.LittleEndian.Uint64(foot)
		var g toc
		if err := gob.NewDecoder(bytes.NewReader(data[tocOff : len(data)-24])).Decode(&g); err != nil {
			t.Fatalf("accepted a TOC gob rejects: %v", err)
		}
		if err := sameAsGob(r, g); err != nil {
			t.Fatalf("accepted TOC decodes otherwise with gob: %v", err)
		}
		// Every accessor of an accepted stream succeeds (sameAsGob called
		// Chunk, Chunks and Attributes): OpenReaderAt validated each record,
		// and accessors decode them again. ReadChunk may still fail its
		// checksum or its decode (the fuzzer may luck into a consistent TOC
		// over garbage payload), never otherwise.
		for i, m := range r.Chunks() {
			if b := m.Global; (len(b.Start) > 0 || len(b.Count) > 0) && !b.Valid() {
				t.Fatalf("chunk %d accepted with an invalid global block %v", i, b)
			}
			if m.Stored < 0 || m.RawSize < 0 {
				t.Fatalf("chunk %d accepted with negative sizes: %+v", i, m)
			}
			_, err := r.ReadChunk(i)
			if msg := fmt.Sprint(err); err != nil &&
				!strings.HasPrefix(msg, fmt.Sprintf("dsf: chunk %d: ", i)) &&
				!strings.HasPrefix(msg, fmt.Sprintf("dsf: chunk %d checksum mismatch", i)) {
				t.Fatalf("ReadChunk(%d) of an accepted stream: %v, want a checksum or decode error", i, err)
			}
		}
		_ = r.Verify()
	})
}

// FuzzChunkDecode hands decode arbitrary stored bytes, a codec and a
// RawSize, past the CRC a corrupt TOC would have to match. Every input must
// decode to an error or exactly RawSize bytes. An input whose RawSize is
// past the slack is also held to two allocation bounds, which no smaller one
// could fail by a second RawSize: its first decode allocates no more than
// RawSize plus a constant — twice RawSize for shuffle+gzip when its gunzip
// scratch is not pooled yet, as after a garbage collection empties the pool
// — however far the stream would inflate, so a TOC that understates a bomb
// stops it one byte past RawSize. Once the scratch is pooled, shuffle+gzip
// too allocates only RawSize plus a constant: the least of up to three
// further decodes is held to that (a pooled buffer parked on another P
// misses now and then). Only those inputs pay for the measured decodes and
// the stop-the-world ReadMemStats around each.
func FuzzChunkDecode(f *testing.F) {
	var bomb bytes.Buffer // 1 MiB of zeros in ≈1 KB
	zw := gzip.NewWriter(&bomb)
	zw.Write(make([]byte, 1<<20))
	zw.Close()
	f.Add(bomb.Bytes(), uint8(Gzip), uint8(2), int64(1024))
	f.Add(bomb.Bytes(), uint8(ShuffleGzip), uint8(2), int64(1<<20))
	// One byte past a full buffer at RawSize: an error, not a grown buffer.
	f.Add(bomb.Bytes(), uint8(Gzip), uint8(2), int64(1<<20-1))
	for _, codec := range []Codec{None, Gzip, ShuffleGzip} {
		data := planeField(4 << 10)
		ec, err := encodeChunk(nil, nil, data, codec, 4, DefaultGzipLevel)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(ec.stored), uint8(codec), uint8(2), int64(len(data)))
		f.Add(bytes.Clone(ec.stored), uint8(codec), uint8(2), int64(len(data)-1))
		ec.release(nil)
	}
	f.Add([]byte{}, uint8(Gzip), uint8(0), int64(0))
	f.Add([]byte("not gzip"), uint8(ShuffleGzip), uint8(3), int64(-1))

	const slack = 256 << 10 // a gzip reader the pool lost, error strings
	f.Fuzz(func(t *testing.T, stored []byte, codec, elemLog uint8, rawSize int64) {
		c, elemSize := Codec(codec), 1<<(elemLog%4)
		decodeOnce := func() {
			if raw, err := decode(stored, c, elemSize, rawSize); err == nil && int64(len(raw)) != rawSize {
				t.Fatalf("decoded %d bytes, RawSize %d", len(raw), rawSize)
			}
		}
		if rawSize <= slack {
			decodeOnce()
			return
		}
		measure := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeOnce()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		bound := uint64(rawSize) + slack
		cold := bound
		if c == ShuffleGzip {
			cold += uint64(rawSize)
		}
		if got := measure(); got > cold {
			t.Fatalf("%v decode of %d stored bytes with RawSize %d allocated %d bytes, bound %d",
				c, len(stored), rawSize, got, cold)
		}
		warm := measure()
		for i := 1; i < 3 && warm > bound; i++ {
			warm = min(warm, measure())
		}
		if warm > bound {
			t.Fatalf("%v decode of %d stored bytes with RawSize %d allocated %d bytes with its scratch pooled, bound %d",
				c, len(stored), rawSize, warm, bound)
		}
	})
}
