package dsf

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"

	"damaris/internal/layout"
)

// scratchChunks builds n chunks over `layouts` distinct layouts, each with
// its position in a global 1-D domain when global is set.
func scratchChunks(n, layouts int, global bool) ([]ChunkMeta, [][]byte) {
	metas, datas := make([]ChunkMeta, n), make([][]byte, n)
	for i := range metas {
		lay := layout.MustNew(layout.Float32, int64(4+i%layouts))
		metas[i] = ChunkMeta{Name: "v", Iteration: 3, Source: i, Layout: lay}
		if global {
			metas[i].Global = layout.Block{Start: []int64{int64(16 * i)}, Count: []int64{lay.Elems()}}
		}
		datas[i] = make([]byte, lay.Bytes())
		datas[i][0] = byte(i)
	}
	return metas, datas
}

// What writing one object allocates does not grow with its chunk count:
// records and global coordinates go into the previous object's scratch,
// equal layouts share a descriptor, the TOC is appended straight into the
// pooled write buffer.
func TestWriteChunksAllocsIndependentOfChunkCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	allocs := func(chunks int, global bool) float64 {
		metas, datas := scratchChunks(chunks, 3, global)
		write := func() {
			w, err := NewWriter(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			w.SetAttribute("writer", "test")
			if err := w.WriteChunks(metas, datas, nil); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		write()
		return testing.AllocsPerRun(50, write)
	}
	for _, global := range []bool{false, true} {
		few, many := allocs(8, global), allocs(64, global)
		t.Logf("global blocks %v: allocs per object: %.0f for 8 chunks, %.0f for 64", global, few, many)
		if many > few+1 {
			t.Errorf("global blocks %v: writing 64 chunks allocates %.0f, 8 chunks %.0f: the count grows with the chunks",
				global, many, few)
		}
	}
}

// A Writer's scratch comes back empty: nothing of a previous object — its
// records, attributes or global coordinates — reaches the next one's TOC.
func TestWriterScratchStartsEmpty(t *testing.T) {
	metas, datas := scratchChunks(12, 3, true)
	for _, n := range []int{12, 1} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			w.SetAttribute("first", "object")
		}
		if err := w.WriteChunks(metas[:n], datas[:n], nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if r.NumChunks() != n || (n == 1 && len(r.Attributes()) != 0) {
			t.Fatalf("object of %d chunks reads back %d chunks, attributes %v", n, r.NumChunks(), r.Attributes())
		}
		for i, m := range r.Chunks() {
			if !slices.Equal(m.Global.Start, metas[i].Global.Start) || !slices.Equal(m.Global.Count, metas[i].Global.Count) {
				t.Fatalf("chunk %d: global block %v, want %v", i, m.Global, metas[i].Global)
			}
		}
	}
}

// Records of equal layouts borrow one marshalled descriptor; a stream with
// more distinct layouts than the Writer remembers marshals the excess per
// chunk. Either way every chunk reads back with its own layout.
func TestWriterSharesLayoutDescriptors(t *testing.T) {
	for _, layouts := range []int{3, maxLayoutDescs + 5} {
		metas, datas := scratchChunks(3*(maxLayoutDescs+5), layouts, false)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// In two batches and a single chunk: records written earlier must
		// survive the later reservations.
		if err := w.WriteChunks(metas[:10], datas[:10], nil); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunk(metas[10], datas[10]); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunks(metas[11:], datas[11:], nil); err != nil {
			t.Fatal(err)
		}
		if want := min(layouts, maxLayoutDescs); len(w.descs) != want {
			t.Errorf("%d layouts: writer remembers %d descriptors, want %d", layouts, len(w.descs), want)
		}
		if a, b := w.recs[0].LayoutDesc, w.recs[layouts].LayoutDesc; &a[0] != &b[0] {
			t.Errorf("%d layouts: chunks 0 and %d have equal layouts but separate descriptors", layouts, layouts)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range r.Chunks() {
			if !m.Layout.Equal(metas[i].Layout) || m.Source != i {
				t.Fatalf("%d layouts: chunk %d read back as source %d, %v", layouts, i, m.Source, m.Layout)
			}
			if data, err := r.ReadChunk(i); err != nil || !bytes.Equal(data, datas[i]) {
				t.Fatalf("%d layouts: chunk %d payload: %v", layouts, i, err)
			}
		}
	}
}

// Attributes are kept as the TOC stores them — sorted, one value per key, the
// last one set — so the stream does not depend on the order they were set in.
func TestAttributesSortedLastWins(t *testing.T) {
	stream := func(kv ...string) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(kv); i += 2 {
			w.SetAttribute(kv[i], kv[i+1])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := stream("node", "7", "writer", "x", "a", "1", "node", "0")
	if want := stream("a", "1", "node", "0", "writer", "x"); !bytes.Equal(got, want) {
		t.Error("stream depends on the order attributes were set in")
	}
	r, err := OpenReaderAt(bytes.NewReader(got), int64(len(got)))
	if err != nil {
		t.Fatal(err)
	}
	if attrs := r.Attributes(); len(attrs) != 3 || attrs["node"] != "0" || attrs["a"] != "1" {
		t.Errorf("attributes = %v", attrs)
	}
}

// A Writer's write buffer outlives a garbage collection: scratch goes back
// to a free list, not to a sync.Pool that collections empty, so the first
// object after one does not allocate a fresh buffer.
func TestWriterScratchSurvivesGC(t *testing.T) {
	object := func() {
		w, err := NewWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	object()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	object()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Errorf("an object written after two collections allocates %d bytes, want < 4 KiB", n)
	}
}
