package dsf

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"damaris/internal/layout"
	"damaris/internal/mpi"
)

// testChunks builds a mixed-codec batch of float32 chunks with smooth,
// compressible content.
func testChunks(n int, elems int64) ([]ChunkMeta, [][]byte) {
	lay := layout.MustNew(layout.Float32, elems)
	metas := make([]ChunkMeta, n)
	datas := make([][]byte, n)
	codecs := []Codec{ShuffleGzip, Gzip, None}
	for c := 0; c < n; c++ {
		xs := make([]float32, elems)
		for i := range xs {
			xs[i] = 280 + float32(c) + 5*float32(math.Sin(float64(i)/300))
		}
		metas[c] = ChunkMeta{
			Name:      fmt.Sprintf("var%d", c%3),
			Iteration: int64(c / 3),
			Source:    c,
			Layout:    lay,
			Codec:     codecs[c%len(codecs)],
		}
		datas[c] = mpi.Float32sToBytes(xs)
	}
	return metas, datas
}

func writeWithWorkers(t *testing.T, path string, metas []ChunkMeta, datas [][]byte, workers int) {
	t.Helper()
	pool := NewEncodePool(workers)
	defer pool.Close()
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("writer", "determinism-test")
	w.SetAttribute("node", "0")
	if err := w.WriteChunks(metas, datas, pool); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The golden-file determinism guarantee: a ShuffleGzip-heavy DSF written
// with encode_workers ∈ {0, 1, 4} is byte-identical, and every variant
// round-trips through Verify/ReadChunk.
func TestWriteChunksDeterministicAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	metas, datas := testChunks(12, 4096)
	golden := filepath.Join(dir, "serial.dsf")
	writeWithWorkers(t, golden, metas, datas, 0)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		path := filepath.Join(dir, fmt.Sprintf("workers%d.dsf", workers))
		writeWithWorkers(t, path, metas, datas, workers)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file written with %d encode workers differs from serial output (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		for i := range metas {
			b, err := r.ReadChunk(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, datas[i]) {
				t.Errorf("workers=%d: chunk %d payload mismatch", workers, i)
			}
		}
		r.Close()
	}
}

// Two files with identical chunks and attributes must be byte-identical —
// in particular the TOC attribute encoding must not depend on map iteration
// order.
func TestTOCEncodingDeterministic(t *testing.T) {
	dir := t.TempDir()
	metas, datas := testChunks(3, 256)
	var prev []byte
	for round := 0; round < 5; round++ {
		path := filepath.Join(dir, fmt.Sprintf("r%d.dsf", round))
		w, err := create(t, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range [][2]string{{"writer", "x"}, {"node", "3"}, {"unit", "K"}, {"model", "cm1"}} {
			w.SetAttribute(kv[0], kv[1])
		}
		if err := w.WriteChunks(metas, datas, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(b, prev) {
			t.Fatalf("round %d produced different bytes for identical content", round)
		}
		prev = b
	}
}

func TestWriteChunksValidation(t *testing.T) {
	dir := t.TempDir()
	metas, datas := testChunks(4, 64)
	w, err := create(t, filepath.Join(dir, "v.dsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteChunks(metas, datas[:3], nil); err == nil {
		t.Error("mismatched metas/datas lengths should fail")
	}
	bad := append([]ChunkMeta(nil), metas...)
	bad[2].Name = ""
	if err := w.WriteChunks(bad, datas, nil); err == nil {
		t.Error("invalid chunk in batch should fail")
	}
	if payloadBytes(w) != 0 {
		t.Errorf("failed batch wrote %d bytes; validation must reject before streaming", payloadBytes(w))
	}
	bad = append([]ChunkMeta(nil), metas...)
	bad[1].Codec = Codec(42)
	pool := NewEncodePool(2)
	defer pool.Close()
	if err := w.WriteChunks(bad, datas, pool); err == nil {
		t.Error("unknown codec in pooled batch should fail")
	}
}

// A shared pool serves concurrent writers (the multi-writer persistence
// pipeline) without mixing up their files.
func TestEncodePoolSharedAcrossWriters(t *testing.T) {
	dir := t.TempDir()
	pool := NewEncodePool(4)
	defer pool.Close()
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	paths := make([]string, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			metas, datas := testChunks(9, 2048)
			for i := range metas {
				metas[i].Source = 100*wi + i // distinct tuples per file
			}
			paths[wi] = filepath.Join(dir, fmt.Sprintf("w%d.dsf", wi))
			w, err := create(t, paths[wi])
			if err != nil {
				errs[wi] = err
				return
			}
			if err := w.WriteChunks(metas, datas, pool); err != nil {
				errs[wi] = err
				w.Close()
				return
			}
			errs[wi] = w.Close()
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", wi, err)
		}
		r, err := Open(paths[wi])
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("writer %d: %v", wi, err)
		}
		for _, m := range r.Chunks() {
			if m.Source/100 != wi {
				t.Errorf("writer %d file holds chunk from writer %d", wi, m.Source/100)
			}
		}
		r.Close()
	}
	st := pool.Stats()
	if st.Workers != 4 || st.Chunks != 4*9 || st.Failures != 0 {
		t.Errorf("pool stats = %+v", st)
	}
	if st.Latency.N != int(st.Chunks) || st.RawBytes == 0 || st.StoredBytes == 0 {
		t.Errorf("pool accounting incomplete: %+v", st)
	}
	if st.MaxBytesInFlight <= 0 {
		t.Errorf("MaxBytesInFlight = %d", st.MaxBytesInFlight)
	}
}

func TestEncodePoolNilSafe(t *testing.T) {
	var p *EncodePool
	if p.Workers() != 0 {
		t.Error("nil pool Workers should be 0")
	}
	if st := p.Stats(); st.Workers != 0 || st.Chunks != 0 {
		t.Errorf("nil pool stats = %+v", st)
	}
	p.Close() // must not panic
	if NewEncodePool(0) != nil || NewEncodePool(-3) != nil {
		t.Error("non-positive worker counts should return the nil pool")
	}
}

// The writer's gzip level must actually reach the deflate stage: the full
// stdlib range is accepted and levels order output sizes as expected.
func TestWriterGzipLevel(t *testing.T) {
	dir := t.TempDir()
	metas, datas := testChunks(1, 1<<14)
	metas[0].Codec = Gzip
	size := func(level int) int64 {
		path := filepath.Join(dir, fmt.Sprintf("l%d.dsf", level))
		w, err := create(t, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.SetGzipLevel(level); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunk(metas[0], datas[0]); err != nil {
			t.Fatal(err)
		}
		stored := payloadBytes(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Verify(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		return stored
	}
	raw := int64(len(datas[0]))
	if stored := size(gzip.NoCompression); stored <= raw {
		t.Errorf("NoCompression stored %d <= raw %d; level 0 must mean store", stored, raw)
	}
	if size(gzip.HuffmanOnly) <= size(gzip.BestCompression) {
		t.Error("HuffmanOnly should compress worse than BestCompression")
	}
	w, _ := create(t, filepath.Join(dir, "bad.dsf"))
	defer w.Close()
	if err := w.SetGzipLevel(42); err == nil {
		t.Error("invalid gzip level should fail")
	}
}

// An EncodePool's deflate state and output buffers are its own, not a
// sync.Pool's: a collection (which empties every sync.Pool) or the scheduler
// moving a worker to another P (whose sync.Pool slots are empty) costs a warm
// pool nothing. With sync.Pool-held writers each of the collections below made
// both workers build their two gzip writers again, ≈3 MB a batch.
func TestEncodePoolKeepsItsStateAcrossGC(t *testing.T) {
	metas, datas := testChunks(8, 1<<16)
	for i := range metas {
		metas[i].Codec = ShuffleGzip
	}
	pool := NewEncodePool(2)
	defer pool.Close()
	w, err := create(t, filepath.Join(t.TempDir(), "a.dsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	iteration := int64(0)
	batch := func() {
		for i := range metas {
			metas[i].Iteration = iteration
		}
		iteration++
		if err := w.WriteChunks(metas, datas, pool); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		batch()
	}
	const batches = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		runtime.GC()
		runtime.GC()
		batch()
	}
	runtime.ReadMemStats(&after)
	if perBatch := (after.TotalAlloc - before.TotalAlloc) / batches; perBatch > 128<<10 {
		t.Errorf("a warm pool allocates %d bytes per 8-chunk batch across collections, want bookkeeping only", perBatch)
	} else {
		t.Logf("%d bytes per batch", perBatch)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: the encode hot path, serial vs pooled (alloc win) and with
// parallel workers (throughput win on multicore).

// benchChunkBytes is one benchmark chunk: 1 MiB of smooth float32 data.
const benchChunkElems = 1 << 18

func benchData() []byte {
	xs := make([]float32, benchChunkElems)
	for i := range xs {
		xs[i] = 300 + 10*float32(math.Sin(float64(i)/700))
	}
	return mpi.Float32sToBytes(xs)
}

// BenchmarkEncodeChunkNaive is the seed's per-chunk encode: a fresh shuffle
// buffer, a fresh gzip.Writer and a growing bytes.Buffer per call — the
// allocation behavior this PR removes. Kept as the allocs/op baseline.
func BenchmarkEncodeChunkNaive(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := len(data) / 4
		sh := make([]byte, len(data))
		for e := 0; e < n; e++ {
			for j := 0; j < 4; j++ {
				sh[j*n+e] = data[e*4+j]
			}
		}
		var out bytes.Buffer
		gw, err := gzip.NewWriterLevel(&out, gzip.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gw.Write(sh); err != nil {
			b.Fatal(err)
		}
		if err := gw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeChunkPooled is the same ShuffleGzip encode through the
// pooled path WriteChunk/WriteChunks use.
func BenchmarkEncodeChunkPooled(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec, err := encodeChunk(nil, nil, data, ShuffleGzip, 4, gzip.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		ec.release(nil)
	}
}

// benchWriteChunks persists one 8-chunk ShuffleGzip batch per iteration
// through WriteChunks with the given encode worker count (0 = serial).
func benchWriteChunks(b *testing.B, workers int) {
	dir := b.TempDir()
	metas, datas := testChunks(8, benchChunkElems)
	for i := range metas {
		metas[i].Codec = ShuffleGzip
	}
	var total int64
	for _, d := range datas {
		total += int64(len(d))
	}
	pool := NewEncodePool(workers)
	defer pool.Close()
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("b%03d.dsf", i%16))
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWriter(f)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteChunks(metas, datas, pool); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = os.RemoveAll(dir)
}

func BenchmarkEncodeWriteChunksSerial(b *testing.B)   { benchWriteChunks(b, 0) }
func BenchmarkEncodeWriteChunksWorkers2(b *testing.B) { benchWriteChunks(b, 2) }
func BenchmarkEncodeWriteChunksWorkers4(b *testing.B) { benchWriteChunks(b, 4) }
