package dsf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"

	"damaris/internal/layout"
	"damaris/internal/obs"
	"damaris/internal/transform"
)

// The ShuffleGzip codec stores one gzip member per byte plane. The format
// did not change for it — a gzip stream may hold several members — and these
// tests hold both directions of that claim without fixture files.

// planeField is a float32 field whose four byte planes get three different
// treatments: noise (stored), half-structured (configured level) and long
// runs (fast pass).
func planeField(elems int) []byte { return sineField(elems, 0.01) }

// sineField is 280 + 8·sin(i/600) + N(0, sigma) as float32. Without noise
// its low plane is one level 1 can only store and the configured level
// repays: the member whose head was the trial.
func sineField(elems int, sigma float64) []byte {
	rng := rand.New(rand.NewSource(11))
	out := make([]byte, 4*elems)
	for i := 0; i < elems; i++ {
		x := 280 + 8*math.Sin(float64(i)/600) + rng.NormFloat64()*sigma
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
	}
	return out
}

func writeOneChunk(t *testing.T, data []byte, write func(w *Writer, meta ChunkMeta)) *Reader {
	t.Helper()
	var file bytes.Buffer
	w, err := NewWriter(&file)
	if err != nil {
		t.Fatal(err)
	}
	write(w, ChunkMeta{Name: "theta", Layout: layout.MustNew(layout.Float32, int64(len(data)/4)), Codec: ShuffleGzip})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReaderAt(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func storedBytes(t *testing.T, r *Reader, i int) []byte {
	t.Helper()
	stored := make([]byte, r.recs[i].Stored)
	if _, err := r.ra.ReadAt(stored, r.recs[i].Offset); err != nil {
		t.Fatal(err)
	}
	return stored
}

// A chunk written now decodes with nothing but compress/gzip and Unshuffle,
// which is all a reader built before planes existed has.
//
// That holds for a member whose head was the configured level's trial, too:
// the noise-free field's low plane is one, and the flush that ended the trial
// left an empty stored block in it, which is deflate like any other block.
func TestPlaneChunkReadableByStdlibGzip(t *testing.T) {
	for name, data := range map[string][]byte{"noisy": planeField(64 << 10), "smooth": sineField(64<<10, 0)} {
		r := writeOneChunk(t, data, func(w *Writer, meta ChunkMeta) {
			if err := w.WriteChunk(meta, data); err != nil {
				t.Fatal(err)
			}
		})
		stored := storedBytes(t, r, 0)
		if members := bytes.Count(stored, []byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0}); members < 4 {
			t.Fatalf("%s: stored chunk holds %d gzip headers, want one per byte plane", name, members)
		}
		if name == "smooth" && !bytes.Contains(stored, []byte{0, 0, 0xff, 0xff}) {
			t.Fatalf("%s: no sync marker in the stored chunk: no trial head was kept", name)
		}
		zr, err := gzip.NewReader(bytes.NewReader(stored))
		if err != nil {
			t.Fatal(err)
		}
		shuffled, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transform.Unshuffle(shuffled, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: stdlib decode of a plane-encoded chunk differs from the input", name)
		}
	}
}

// A chunk stored the way every earlier writer did — one member over the whole
// shuffled chunk — still reads through ReadChunk.
func TestWholeChunkMemberStillReadable(t *testing.T) {
	data := planeField(64 << 10)
	r := writeOneChunk(t, data, func(w *Writer, meta ChunkMeta) {
		shuffled, err := transform.ShuffleTo(nil, data, 4)
		if err != nil {
			t.Fatal(err)
		}
		var member bytes.Buffer
		zw, err := gzip.NewWriterLevel(&member, DefaultGzipLevel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(shuffled); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		stored := member.Bytes()
		ec := encodedChunk{stored: stored, crc: crc32.ChecksumIEEE(stored)}
		if err := w.appendEncoded(meta, int64(len(data)), ec); err != nil {
			t.Fatal(err)
		}
	})
	got, err := r.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("single-member chunk decodes to different bytes")
	}
	if err := r.Verify(); err != nil {
		t.Error(err)
	}
}

// decode hands DecompressGzipTo a buffer of exactly RawSize bytes, and a
// four-member chunk fills it without outgrowing it (the no-growth half of the
// claim is transform's TestShuffleGzipDecodeOnePass).
func TestPlaneChunkDecode(t *testing.T) {
	data := planeField(64 << 10)
	ec, err := encodeChunk(nil, nil, data, ShuffleGzip, 4, DefaultGzipLevel)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.release(nil)
	if ec.planes == (transform.PlaneCounts{transform.PlaneLevel: 4}) {
		t.Fatalf("decisions %v: the field should exercise the shortcuts", ec.planes)
	}
	raw, err := decode(ec.stored, ShuffleGzip, 4, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Error("decode mismatch")
	}
}

// The pool reports what the encoder decided, per mode, and the scrape carries
// it as one labelled family.
func TestEncodeStatsPlaneDecisions(t *testing.T) {
	data := planeField(64 << 10)
	lay := layout.MustNew(layout.Float32, int64(len(data)/4))
	metas := make([]ChunkMeta, 3)
	datas := make([][]byte, 3)
	for i := range metas {
		metas[i] = ChunkMeta{Name: "theta", Source: i, Layout: lay, Codec: ShuffleGzip}
		datas[i] = data
	}
	metas[2].Codec = Gzip // no planes

	pool := NewEncodePool(2)
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunks(metas, datas, pool); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Close()

	st := pool.Stats()
	want := transform.PlaneCounts{transform.PlaneStored: 2, transform.PlaneLevel: 2, transform.PlaneFast: 4}
	if st.Planes != want {
		t.Errorf("plane decisions %v, want %v", st.Planes, want)
	}

	reg := obs.NewRegistry()
	reg.Collect(func(e *obs.Emitter) { st.Emit(e, "server", "0") })
	if err := reg.CheckExposition(); err != nil {
		t.Error(err)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`damaris_encode_planes_total{mode="stored",server="0"} 2`,
		`damaris_encode_planes_total{mode="fast",server="0"} 4`,
		`damaris_encode_planes_total{mode="level",server="0"} 2`,
	} {
		if !bytes.Contains(text.Bytes(), []byte(line)) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}
