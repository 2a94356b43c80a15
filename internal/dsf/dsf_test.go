package dsf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"damaris/internal/layout"
	"damaris/internal/mpi"
)

func tmpfile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "out.dsf")
}

// create starts a DSF stream on a new file at path; the file is closed when
// the test ends.
func create(t testing.TB, path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { f.Close() })
	return NewWriter(f)
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := tmpfile(t)
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("model", "cm1-mini")
	w.SetAttribute("unit", "K")

	lay := layout.MustNew(layout.Float32, 4, 3)
	xs := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	data := mpi.Float32sToBytes(xs)
	for i, codec := range []Codec{None, Gzip, ShuffleGzip} {
		meta := ChunkMeta{
			Name: "theta", Iteration: int64(i), Source: 7, Layout: lay, Codec: codec,
			Global: layout.Block{Start: []int64{0, int64(3 * i)}, Count: []int64{4, 3}},
		}
		if err := w.WriteChunk(meta, data); err != nil {
			t.Fatal(err)
		}
	}
	if payloadBytes(w) <= 0 {
		t.Error("stored bytes should be positive")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be nil")
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Attributes()["model"]; got != "cm1-mini" {
		t.Errorf("attribute = %q", got)
	}
	chunks := r.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	for i, m := range chunks {
		if m.Name != "theta" || m.Iteration != int64(i) || m.Source != 7 {
			t.Errorf("meta[%d] = %+v", i, m)
		}
		if !m.Layout.Equal(lay) {
			t.Errorf("layout[%d] = %v", i, m.Layout)
		}
		if !m.Global.Valid() || m.Global.Start[1] != int64(3*i) {
			t.Errorf("global[%d] = %+v", i, m.Global)
		}
		got, err := r.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("chunk %d (%v) payload mismatch", i, m.Codec)
		}
	}
	if err := r.Verify(); err != nil {
		t.Error(err)
	}
}

func TestWriterValidation(t *testing.T) {
	w, _ := create(t, tmpfile(t))
	lay := layout.MustNew(layout.Byte, 4)
	if err := w.WriteChunk(ChunkMeta{Name: "", Layout: lay}, []byte("aaaa")); err == nil {
		t.Error("empty name should fail")
	}
	if err := w.WriteChunk(ChunkMeta{Name: "x"}, []byte("aaaa")); err == nil {
		t.Error("zero layout should fail")
	}
	if err := w.WriteChunk(ChunkMeta{Name: "x", Layout: lay}, []byte("aa")); err == nil {
		t.Error("size mismatch should fail")
	}
	if err := w.WriteChunk(ChunkMeta{Name: "x", Layout: lay, Codec: Codec(9)}, []byte("aaaa")); err == nil {
		t.Error("unknown codec should fail")
	}
	_ = w.Close()
	if err := w.WriteChunk(ChunkMeta{Name: "x", Layout: lay}, []byte("aaaa")); err == nil {
		t.Error("write after close should fail")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.dsf")); err == nil {
		t.Error("missing file should fail")
	}

	bad := filepath.Join(dir, "bad.dsf")
	_ = os.WriteFile(bad, []byte("this is not a dsf file at all, padding padding"), 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("bad magic should fail")
	}

	short := filepath.Join(dir, "short.dsf")
	_ = os.WriteFile(short, []byte("DSF"), 0o644)
	if _, err := Open(short); err == nil {
		t.Error("short file should fail")
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	path := tmpfile(t)
	w, _ := create(t, path)
	lay := layout.MustNew(layout.Byte, 1024)
	_ = w.WriteChunk(ChunkMeta{Name: "x", Layout: lay}, make([]byte, 1024))
	_ = w.Close()
	full, _ := os.ReadFile(path)
	// Simulate a writer crash: drop the footer.
	_ = os.WriteFile(path, full[:len(full)-10], 0o644)
	if _, err := Open(path); err == nil {
		t.Error("truncated file should fail to open")
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	path := tmpfile(t)
	w, _ := create(t, path)
	lay := layout.MustNew(layout.Byte, 64)
	payload := bytes.Repeat([]byte{7}, 64)
	_ = w.WriteChunk(ChunkMeta{Name: "x", Layout: lay}, payload)
	_ = w.Close()
	// Flip a byte inside the chunk payload (after the 8-byte header).
	raw, _ := os.ReadFile(path)
	raw[12] ^= 0xFF
	_ = os.WriteFile(path, raw, 0o644)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err) // TOC itself is intact
	}
	defer r.Close()
	if _, err := r.ReadChunk(0); err == nil {
		t.Error("corrupt chunk should fail checksum")
	}
	if err := r.Verify(); err == nil {
		t.Error("Verify should catch corruption")
	}
}

func TestReadChunkBounds(t *testing.T) {
	path := tmpfile(t)
	w, _ := create(t, path)
	_ = w.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadChunk(0); err == nil {
		t.Error("out-of-range chunk should fail")
	}
	if _, err := r.ReadChunk(-1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	path := tmpfile(t)
	w, _ := create(t, path)
	w.SetAttribute("empty", "yes")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Chunks()) != 0 {
		t.Error("expected no chunks")
	}
	if r.Attributes()["empty"] != "yes" {
		t.Error("attributes lost")
	}
}

// payloadBytes is the payload written so far (header and TOC excluded), from
// the offset the writer records each chunk at.
func payloadBytes(w *Writer) int64 { return w.offset - int64(len(headMagic)) }

// The stored-byte count and the TOC offsets must stay exact now that chunk,
// TOC and footer writes coalesce in a bufio layer: the offset tracks logical
// bytes, not flushed ones.
func TestStoredBytesWithBufferedWrites(t *testing.T) {
	path := tmpfile(t)
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.MustNew(layout.Byte, 100)
	// Many small chunks: all of them fit inside the write buffer, so
	// nothing has hit the file when the offset is read.
	const chunks = 20
	for i := 0; i < chunks; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 100)
		if err := w.WriteChunk(ChunkMeta{Name: "x", Iteration: int64(i), Layout: lay}, data); err != nil {
			t.Fatal(err)
		}
	}
	if got := payloadBytes(w); got != chunks*100 {
		t.Errorf("stored bytes = %d before Close, want %d", got, chunks*100)
	}
	if st, err := os.Stat(path); err != nil || st.Size() >= chunks*100 {
		t.Errorf("expected writes to be buffered, file is %v bytes (err %v)", st.Size(), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := payloadBytes(w); got != chunks*100 {
		t.Errorf("stored bytes = %d after Close, want %d (TOC/footer must not count)", got, chunks*100)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < chunks; i++ {
		b, err := r.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(i) {
			t.Errorf("chunk %d payload wrong after buffered write", i)
		}
	}
}

func TestCodecStrings(t *testing.T) {
	if None.String() != "none" || Gzip.String() != "gzip" || ShuffleGzip.String() != "shuffle+gzip" {
		t.Error("codec strings wrong")
	}
	if Codec(9).String() != "codec(9)" {
		t.Error("unknown codec string wrong")
	}
}

func TestCompressionShrinksSmoothField(t *testing.T) {
	path := tmpfile(t)
	w, _ := create(t, path)
	n := int64(1 << 14)
	lay := layout.MustNew(layout.Float32, n)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = 280 + float32(i%100)/100
	}
	data := mpi.Float32sToBytes(xs)
	_ = w.WriteChunk(ChunkMeta{Name: "smooth", Layout: lay, Codec: ShuffleGzip}, data)
	_ = w.Close()
	r, _ := Open(path)
	defer r.Close()
	m := r.Chunks()[0]
	if m.Stored >= m.RawSize {
		t.Errorf("shuffle+gzip did not shrink: %d -> %d", m.RawSize, m.Stored)
	}
}

// Property: arbitrary float32 chunks round-trip through every codec.
func TestQuickChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, codecSel uint8, nRaw uint16) bool {
		n := int64(nRaw%512) + 1
		codec := []Codec{None, Gzip, ShuffleGzip}[int(codecSel)%3]
		lay, err := layout.New(layout.Float64, n)
		if err != nil {
			return false
		}
		xs := make([]float64, n)
		r2 := rand.New(rand.NewSource(seed))
		for i := range xs {
			xs[i] = r2.NormFloat64()
		}
		var data []byte
		for _, x := range xs {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
		path := filepath.Join(os.TempDir(), "dsfquick", "q.dsf")
		_ = os.MkdirAll(filepath.Dir(path), 0o755)
		w, err := create(t, path)
		if err != nil {
			return false
		}
		if err := w.WriteChunk(ChunkMeta{Name: "q", Layout: lay, Codec: codec}, data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := Open(path)
		if err != nil {
			return false
		}
		defer rd.Close()
		got, err := rd.ReadChunk(0)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestAccessorAliasing proves Chunks() and Attributes() return state no
// caller can corrupt: the read gateway shares one Reader across concurrent
// requests, so a handler scribbling on returned metadata must never change
// what the next request sees.
func TestAccessorAliasing(t *testing.T) {
	path := tmpfile(t)
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("unit", "K")
	lay := layout.MustNew(layout.Float32, 4)
	meta := ChunkMeta{
		Name: "theta", Iteration: 3, Source: 7, Layout: lay, Codec: None,
		Global: layout.Block{Start: []int64{8}, Count: []int64{4}},
	}
	if err := w.WriteChunk(meta, mpi.Float32sToBytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Mutate everything reachable through the accessors.
	chunks := r.Chunks()
	chunks[0].Name = "corrupted"
	chunks[0].Iteration = -1
	chunks[0].Global.Start[0] = 999
	chunks[0].Global.Count[0] = -5
	attrs := r.Attributes()
	attrs["unit"] = "corrupted"
	attrs["extra"] = "x"

	got := r.Chunks()
	if got[0].Name != "theta" || got[0].Iteration != 3 {
		t.Fatalf("chunk meta corrupted through accessor: %+v", got[0])
	}
	if got[0].Global.Start[0] != 8 || got[0].Global.Count[0] != 4 {
		t.Fatalf("global block corrupted through accessor: %+v", got[0].Global)
	}
	if v := r.Attributes()["unit"]; v != "K" {
		t.Fatalf("attribute corrupted through accessor: %q", v)
	}
	if _, ok := r.Attributes()["extra"]; ok {
		t.Fatal("attribute map insertion leaked into reader state")
	}
	if m, err := r.Chunk(0); err != nil || m.Name != "theta" {
		t.Fatalf("Chunk(0) = %+v, %v", m, err)
	}
	if _, err := r.Chunk(1); err == nil {
		t.Fatal("Chunk(1) out of range should error")
	}
	if m := r.Chunks()[0]; m.Name != "theta" || m.Iteration != 3 || m.Source != 7 {
		t.Fatalf("chunk tuple changed after accessor mutation: %+v", m)
	}
}

// memViewer is a Viewer over an in-memory stream. Once sealed it refuses
// ReadAt: a Reader over a Viewer reads chunks through View alone.
type memViewer struct {
	b      []byte
	sealed bool
	short  int64 // bytes View withholds, to fake a misbehaving lender
}

func (m *memViewer) ReadAt(p []byte, off int64) (int, error) {
	if m.sealed {
		return 0, errors.New("ReadAt after open on a Viewer source")
	}
	return bytes.NewReader(m.b).ReadAt(p, off)
}

func (m *memViewer) View(off, n int64) ([]byte, error) {
	return m.b[off : off+n-m.short], nil
}

// TestReadChunkThroughView pins the view seam: a codec-None chunk is the
// lent bytes themselves (no copy, cap == len), the gzip codecs decode out
// of the view, and the CRC is checked on the view.
func TestReadChunkThroughView(t *testing.T) {
	var stream bytes.Buffer
	w, err := NewWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.MustNew(layout.Float32, 256)
	xs := make([]float32, 256)
	for i := range xs {
		xs[i] = float32(i) / 8
	}
	payload := mpi.Float32sToBytes(xs)
	codecs := []Codec{None, Gzip, ShuffleGzip}
	for i, c := range codecs {
		if err := w.WriteChunk(ChunkMeta{Name: "x", Source: i, Layout: lay, Codec: c}, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src := &memViewer{b: stream.Bytes()}
	r, err := OpenReaderAt(src, int64(len(src.b)))
	if err != nil {
		t.Fatal(err)
	}
	src.sealed = true

	for i, c := range codecs {
		got, err := r.ReadChunk(i)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v: payload differs", c)
		}
	}
	raw, _ := r.ReadChunk(0)
	if &raw[0] != &src.b[len(headMagic)] {
		t.Error("codec None: payload is a copy, want the view itself")
	}
	if cap(raw) != len(raw) {
		t.Errorf("codec None: cap %d != len %d — an append would reach the lender's next bytes", cap(raw), len(raw))
	}

	src.b[len(headMagic)+5] ^= 0xFF
	if _, err := r.ReadChunk(0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt view: err = %v, want a checksum mismatch", err)
	}
	src.b[len(headMagic)+5] ^= 0xFF
	src.short = 1
	if _, err := r.ReadChunk(0); err == nil {
		t.Error("a view shorter than the TOC's stored size should be an error")
	}
}

// pinSink records which bytes reached it pinned: a store.ObjectWriter in
// miniature.
type pinSink struct {
	bytes.Buffer
	pinned [][]byte
}

func (s *pinSink) WritePinned(p []byte) (int, error) {
	s.pinned = append(s.pinned, p)
	return s.Write(p)
}

// A sink with WritePinned is handed every raw chunk of at least the write
// buffer's size itself — exactly that size included — after the bytes
// buffered before it; smaller chunks and encoded ones still go through the
// buffer. The stream's bytes are those a plain sink receives.
func TestPinningSinkGetsRawChunksUnbuffered(t *testing.T) {
	sizes := []int{100, writeBufferSize, writeBufferSize - 1, 3 * writeBufferSize, 8}
	var datas [][]byte
	var metas []ChunkMeta
	for i, n := range sizes {
		datas = append(datas, bytes.Repeat([]byte{byte(i + 1)}, n))
		metas = append(metas, ChunkMeta{Name: "x", Source: i, Layout: layout.MustNew(layout.Byte, int64(n))})
	}
	gz := ChunkMeta{Name: "gz", Layout: layout.MustNew(layout.Byte, writeBufferSize), Codec: Gzip}
	metas, datas = append(metas, gz), append(datas, bytes.Repeat([]byte{9}, writeBufferSize))
	stream := func(sink io.Writer) {
		w, err := NewWriter(sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunks(metas, datas, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var plain bytes.Buffer
	pin := &pinSink{}
	stream(&plain)
	stream(pin)
	if !bytes.Equal(plain.Bytes(), pin.Bytes()) {
		t.Fatal("a pinning sink receives other bytes than a plain one")
	}
	if len(pin.pinned) != 2 || &pin.pinned[0][0] != &datas[1][0] || &pin.pinned[1][0] != &datas[3][0] {
		t.Errorf("pinned %d writes, want the caller's chunks 1 and 3", len(pin.pinned))
	}
}
