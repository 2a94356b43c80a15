package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/store"
)

// storeReader opens the object the way an embedded caller does: dsf over
// the store's own reader — the reference every gateway read must match.
func storeReader(t testing.TB, b store.Backend, name string) *dsf.Reader {
	t.Helper()
	or, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { or.Close() })
	r, err := dsf.OpenReaderAt(or, or.Size())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A warm uncompressed chunk inside one part costs no payload allocation: it
// is a view of the cached part, and one an append cannot grow into the
// bytes that follow it. The read's one allocation is its metadata.
func TestWarmReadChunkIsAView(t *testing.T) {
	b := newBackend(t, 1<<20) // the whole object is one part
	writeDSFObject(t, b, "warm.dsf", 0, 4, 1)
	g := newGateway(t, b, Config{})
	want, err := storeReader(t, b, "warm.dsf").ReadChunk(2)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := g.ReadChunk("warm.dsf", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("chunk differs from the store's own reader")
	}
	if cap(first) != len(first) {
		t.Errorf("cap %d != len %d: an append would write into the cached part", cap(first), len(first))
	}
	_, again, _ := g.ReadChunk("warm.dsf", 2)
	if &again[0] != &first[0] {
		t.Error("two warm reads returned different memory, want the same cached part")
	}

	if raceEnabled {
		t.Skip("allocation bytes mean nothing under -race")
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, _, err := g.ReadChunk("warm.dsf", 2); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead >= 4<<10 {
		t.Errorf("warm read of a %d-byte chunk allocated %d bytes, want < 4 KiB", len(want), perRead)
	}
	// The one allocation is the metadata's global block: the cached reader
	// decodes the chunk's record from the TOC it holds and shares the
	// decoded layout, so no read unmarshals a layout (two more).
	n := testing.AllocsPerRun(reads, func() {
		if _, _, err := g.ReadChunk("warm.dsf", 2); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("warm read allocates %.0f times, want 1", n)
	}
}

// Chunks that straddle parts are assembled and compressed chunks decoded
// out of the views; both must equal what dsf reads over Backend.Open.
func TestStraddlingAndGzipChunksMatchStoreReader(t *testing.T) {
	for _, codec := range []dsf.Codec{dsf.None, dsf.Gzip, dsf.ShuffleGzip} {
		b := newBackend(t, 1000) // 16 KiB chunks: every uncompressed one straddles
		name := fmt.Sprintf("%v.dsf", codec)
		writeDSFObjectCodec(t, b, name, 0, 4, 3, codec, 64)
		ref := storeReader(t, b, name)
		g := newGateway(t, b, Config{})
		for i := 0; i < ref.NumChunks(); i++ {
			want, err := ref.ReadChunk(i)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := g.ReadChunk(name, i)
			if err != nil {
				t.Fatalf("%v chunk %d: %v", codec, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v chunk %d differs from the store's own reader", codec, i)
			}
		}
	}
}

// Opening an object costs the bytes its TOC occupies and nothing in the
// part cache: the decoded TOC is what the gateway keeps.
func TestColdOpensBypassPartCache(t *testing.T) {
	b := newBackend(t, 4096)
	const n = 8
	var total int64
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cold%d.dsf", i)
		writeDSFObject(t, b, name, int64(i), 4, float32(i+1))
		m, err := b.Manifest(name)
		if err != nil {
			t.Fatal(err)
		}
		total += m.Size
	}
	g := newGateway(t, b, Config{})
	before := b.Stats().GetBytes
	for i := 0; i < n; i++ {
		if _, err := g.Reader(fmt.Sprintf("cold%d.dsf", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := g.Stats()
	if s.BackendGets != 0 || s.FetchBytes != 0 || s.PartCacheParts != 0 {
		t.Errorf("%d cold opens: %d backend Gets, %d bytes fetched, %d parts cached; want 0, 0, 0",
			n, s.BackendGets, s.FetchBytes, s.PartCacheParts)
	}
	if moved := b.Stats().GetBytes - before; moved > total/8 {
		t.Errorf("%d cold opens moved %d of the objects' %d bytes, want only their TOCs", n, moved, total)
	}
}

// Views outlive eviction: readers keep what they were lent while a cache of
// two parts churns under them, and every held view still reads the
// reference bytes afterwards. Eviction drops references; it must never
// recycle or rewrite memory a caller holds.
func TestHeldViewsSurviveEviction(t *testing.T) {
	const partSize = 1024
	b := newBackend(t, partSize)
	writeDSFObject(t, b, "evict.dsf", 0, 4, 1)
	ref := serialBytes(t, b, "evict.dsf")
	g := newGateway(t, b, Config{PartCacheBytes: 2 * partSize})

	type held struct {
		off  int64
		view []byte
	}
	const goroutines, reads = 8, 60
	all := make([][]held, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for i := 0; i < reads; i++ {
				// Inside one part, so what comes back is lent, not assembled.
				part := rng.Int63n(int64(len(ref)) / partSize)
				lo := rng.Int63n(partSize - 1)
				off, length := part*partSize+lo, rng.Int63n(partSize-lo)+1
				view, err := g.readRange("evict.dsf", off, length)
				if err != nil {
					errs <- fmt.Errorf("ReadRange(%d,%d): %w", off, length, err)
					return
				}
				all[gi] = append(all[gi], held{off, view})
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := g.Stats(); s.PartEvictions < goroutines {
		t.Fatalf("only %d evictions: the cache did not churn under the held views", s.PartEvictions)
	}
	for _, hs := range all {
		for _, h := range hs {
			if !bytes.Equal(h.view, ref[h.off:h.off+int64(len(h.view))]) {
				t.Fatalf("view of %d+%d changed after its part was evicted", h.off, len(h.view))
			}
		}
	}
}

// A part larger than the whole cache — a file:// object is one part however
// large — is never fetched whole: each chunk read fetches its own range, and
// that range is cached, so a second pass over the same chunks is free.
func TestUncacheablePartIsReadByRange(t *testing.T) {
	b, err := store.Open("file://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	writeDSFObject(t, b, "big.dsf", 0, 256, 1) // 256 x 16 KiB = 4 MiB
	ref := storeReader(t, b, "big.dsf")
	var want [][]byte
	for i := 0; i < ref.NumChunks(); i += 5 {
		chunk, err := ref.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk)
	}
	g := newGateway(t, b, Config{PartCacheBytes: 1 << 20})
	pass := func() (moved int64) {
		before := b.Stats().GetBytes
		for k, chunk := range want {
			_, got, err := g.ReadChunk("big.dsf", 5*k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatalf("chunk %d differs from the store's own reader", 5*k)
			}
		}
		return b.Stats().GetBytes - before
	}

	moved := pass()
	first := g.Stats()
	// The TOC load (header, footer and ~40 KiB of TOC for 256 chunks) is
	// moved but not served.
	if limit := first.BytesServed + 64<<10; moved > limit {
		t.Errorf("serving %d bytes of a 4 MiB object behind a 1 MiB cache moved %d, want <= %d",
			first.BytesServed, moved, limit)
	}
	if first.FetchBytes != first.BytesServed {
		t.Errorf("fetched %d bytes to serve %d, want each chunk's range and nothing around it",
			first.FetchBytes, first.BytesServed)
	}
	if first.PartCacheParts == 0 {
		t.Error("no range cached: the second pass would repeat every read")
	}

	moved = pass()
	if second := g.Stats(); second.BackendGets != first.BackendGets || moved != 0 {
		t.Errorf("second pass over the same chunks: %d backend fetches moving %d bytes, want 0 and 0",
			second.BackendGets-first.BackendGets, moved)
	}
}

// BenchmarkFileObjectChunkReads: a cold and then a warm pass over the chunks
// of a file:// object — one part, however large — through a fresh gateway,
// for an object that fits the default cache and one four times a 1 MiB
// cache, reading every chunk or every fifth. moved-B/served-B is what both
// passes, TOC load included, cost the store per byte they served.
func BenchmarkFileObjectChunkReads(b *testing.B) {
	for _, c := range []struct {
		name           string
		chunks, stride int
		cache          int64
	}{
		{"fits/all", 64, 1, 0}, {"fits/every5th", 64, 5, 0},
		{"exceeds/all", 256, 1, 1 << 20}, {"exceeds/every5th", 256, 5, 1 << 20},
	} {
		b.Run(c.name, func(b *testing.B) {
			be, err := store.Open("file://" + b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer be.Close()
			writeDSFObject(b, be, "f.dsf", 0, c.chunks, 1) // 16 KiB chunks
			var moved, served int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				g := newGateway(b, be, Config{PartCacheBytes: c.cache})
				before := be.Stats().GetBytes
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < c.chunks; i += c.stride {
						if _, _, err := g.ReadChunk("f.dsf", i); err != nil {
							b.Fatal(err)
						}
					}
				}
				moved += be.Stats().GetBytes - before
				served += g.Stats().BytesServed
			}
			b.ReportMetric(float64(moved)/float64(served), "moved-B/served-B")
		})
	}
}

// readHook runs before, once, ahead of the next ranged part read of the
// backend it wraps. It forwards StatObject, so the gateway revalidates as
// usual.
type readHook struct {
	store.Backend
	store.ObjectStater
	before func()
}

func (h *readHook) ReadPartAt(part store.Part, p []byte, off int64) (int, error) {
	if before := h.before; before != nil {
		h.before = nil
		before()
	}
	return h.Backend.ReadPartAt(part, p, off)
}

// checkCacheByDigest fails unless every cached range, of a part or of a span
// of parts, holds the same range of the blobs its key names by digest, each
// of which hashes to its name.
func checkCacheByDigest(t *testing.T, g *Gateway, b store.Backend) {
	t.Helper()
	g.parts.mu.Lock()
	defer g.parts.mu.Unlock()
	for el := g.parts.order.Front(); el != nil; el = el.Next() {
		e := rangeAt(el)
		var parts []byte
		for _, key := range strings.Split(e.key, "+") {
			digest, ok := strings.CutPrefix(key, "sha256:")
			if !ok {
				t.Fatalf("cached key %q names no digest", key)
			}
			blob, err := b.Get("cas/sha256/" + digest)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != digest {
				t.Fatalf("blob %s does not hash to its name", digest)
			}
			parts = append(parts, blob...)
		}
		if !bytes.Equal(e.data, parts[e.lo:e.hi]) {
			t.Fatalf("cached range [%d,%d) of %s is not the bytes its key names", e.lo, e.hi, e.key)
		}
	}
}

// rewriteReversed commits name again as ref's chunks with their payloads in
// reverse order: every chunk's bytes change, but the TOC holds the same
// checksums, so the object keeps its size to the byte.
func rewriteReversed(t *testing.T, b store.Backend, name string, ref *dsf.Reader) {
	t.Helper()
	ow, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dsf.NewWriter(ow)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("unit", "K")
	for i, n := 0, ref.NumChunks(); i < n; i++ {
		meta, err := ref.Chunk(i)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ref.ReadChunk(n - 1 - i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunk(meta, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Commit(); err != nil {
		t.Fatal(err)
	}
}

// touch gives a file a new mtime, so a rewrite that kept its size changes
// its signature even where mtimes are coarse.
func touch(t *testing.T, path string) {
	t.Helper()
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
}

// An object rewritten with one of the same size after its TOC was loaded,
// while a cold chunk read of it is on its way to the store. The read goes by
// the parts' digests, not the object's name, so it returns the chunk the
// loaded TOC describes (dsf checks its CRC) or fails. Either way it never
// caches bytes under a digest they do not hash to, which a deduped twin
// shares; the twin still reads its own bytes and the object its new ones.
func TestRewriteUnderColdReadIsNotCached(t *testing.T) {
	root := t.TempDir()
	inner, err := store.OpenWith("obj://"+root, store.Options{PartSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	writeDSFObjectCodec(t, inner, "a.dsf", 0, 8, 1, dsf.None, 256) // chunk 1 inside part 0, 3 across 0/1
	writeDSFObjectCodec(t, inner, "twin.dsf", 0, 8, 1, dsf.None, 256)
	ref := storeReader(t, inner, "twin.dsf")
	old, err := ref.ReadChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	b := &readHook{Backend: inner, ObjectStater: inner.(store.ObjectStater)}
	g := newGateway(t, b, Config{})
	before := manifest(t, g, "a.dsf")
	b.before = func() {
		rewriteReversed(t, inner, "a.dsf", ref)
		touch(t, filepath.Join(root, "manifests", "a.dsf.json"))
		if m, err := inner.Manifest("a.dsf"); err != nil || m.Size != before.Size || m.Parts[0] == before.Parts[0] {
			t.Fatalf("rewrite: %v, or it changed the size or kept part 0", err)
		}
	}
	if _, got, err := g.ReadChunk("a.dsf", 1); err == nil && !bytes.Equal(got, old) {
		t.Fatal("a chunk read across a rewrite of its object returned bytes its TOC does not describe")
	}
	if b.before != nil {
		t.Fatal("the read never reached the store")
	}
	checkCacheByDigest(t, g, inner)
	fresh := storeReader(t, inner, "a.dsf")
	for _, i := range []int{1, 3} {
		twin, err := ref.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := g.ReadChunk("twin.dsf", i); err != nil || !bytes.Equal(got, twin) {
			t.Fatalf("twin chunk %d: %v, or it no longer reads its own bytes", i, err)
		}
		rewritten, err := fresh.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := g.ReadChunk("a.dsf", i); err != nil || !bytes.Equal(got, rewritten) || bytes.Equal(got, twin) {
			t.Fatalf("rewritten object chunk %d: %v, or it does not read its new bytes", i, err)
		}
	}
	checkCacheByDigest(t, g, inner)
}

// A file:// part is named, not content-addressed, and a rewrite keeps the
// name: a same-size rewrite must be served its new bytes, never the ranges
// cached from the object it replaced.
func TestFileRewriteMissesOldRanges(t *testing.T) {
	root := t.TempDir()
	b, err := store.Open("file://" + root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	writeDSFObject(t, b, "f.dsf", 0, 4, 1)
	g := newGateway(t, b, Config{})
	_, old, err := g.ReadChunk("f.dsf", 1)
	if err != nil {
		t.Fatal(err)
	}
	before := manifest(t, g, "f.dsf")
	rewriteReversed(t, b, "f.dsf", storeReader(t, b, "f.dsf"))
	touch(t, filepath.Join(root, "f.dsf"))
	want, err := storeReader(t, b, "f.dsf").ReadChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := g.ReadChunk("f.dsf", 1); err != nil || !bytes.Equal(got, want) || bytes.Equal(want, old) {
		t.Fatalf("after a same-size rewrite: %v, or the new bytes are not served", err)
	}
	if after := manifest(t, g, "f.dsf"); after.Size != before.Size {
		t.Fatal("the rewrite changed the object's size")
	}
}

// getCounter counts the whole-blob Gets a backend answers, by blob name.
type getCounter struct {
	store.Backend
	mu   sync.Mutex
	gets map[string]int
}

func (c *getCounter) Get(name string) ([]byte, error) {
	c.mu.Lock()
	c.gets[name]++
	c.mu.Unlock()
	return c.Backend.Get(name)
}

// chunkedObject commits eight 256 KiB chunks over 1 MiB parts: chunks 0-2
// lie inside part 0, 4-6 inside part 1, and chunk 7's tail in the object's
// last part, a few KiB that also hold the TOC.
func chunkedObject(t *testing.T) (*getCounter, *store.Manifest, *dsf.Reader) {
	t.Helper()
	b := &getCounter{Backend: newBackend(t, 1<<20), gets: map[string]int{}}
	writeDSFObjectCodec(t, b, "chunked.dsf", 0, 8, 1, dsf.None, 256)
	m, err := b.Manifest("chunked.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 3 || m.Parts[2].Size > smallPart {
		t.Fatalf("parts %+v, want two of 1 MiB and a small last one", m.Parts)
	}
	return b, m, storeReader(t, b, "chunked.dsf")
}

// A cold chunk read moves the chunk's bytes, not the part around them; a
// part cached whole serves every chunk inside it; and a chunk whose tail
// lies in the small last part fetches that part whole, once.
func TestColdChunkReadMovesOnlyItsRange(t *testing.T) {
	b, m, ref := chunkedObject(t)
	g := newGateway(t, b, Config{})
	if _, err := g.Reader("chunked.dsf"); err != nil { // the TOC load is not the chunk's
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for _, i := range []int{1, 5, 7} {
		chunk, err := ref.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = chunk
	}
	read := func(i int) {
		t.Helper()
		if _, got, err := g.ReadChunk("chunked.dsf", i); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("chunk %d: %v, or bytes differ from the store's own reader", i, err)
		}
	}

	meta, err := ref.Chunk(1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read(1)
	runtime.ReadMemStats(&after)
	if s := g.Stats(); s.BackendGets != 1 || s.FetchBytes != meta.Stored {
		t.Errorf("cold read of a %d-byte chunk: %d fetches moving %d bytes, want 1 moving %d",
			meta.Stored, s.BackendGets, s.FetchBytes, meta.Stored)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc >= uint64(meta.Stored)*5/4 {
		t.Errorf("cold read of a %d-byte chunk allocated %d bytes, want < 1.25x the chunk", meta.Stored, alloc)
	}

	// Part 1 cached whole contains every chunk inside it.
	if _, err := g.readRange("chunked.dsf", m.Parts[0].Size, m.Parts[1].Size); err != nil {
		t.Fatal(err)
	}
	whole := g.Stats()
	read(5)
	if s := g.Stats(); s.BackendGets != whole.BackendGets || s.PartHits <= whole.PartHits {
		t.Errorf("chunk inside a part cached whole: %d more fetches, %d more hits; want 0 and > 0",
			s.BackendGets-whole.BackendGets, s.PartHits-whole.PartHits)
	}

	// Chunk 7's head is in part 1, cached; its tail is the small last part's.
	read(7)
	if s, last := g.Stats(), m.Parts[2].Blob; s.BackendGets != whole.BackendGets+1 || b.gets[last] != 1 {
		t.Errorf("chunk 7: %d more fetches, %d Gets of the last part; want 1 and 1",
			s.BackendGets-whole.BackendGets, b.gets[last])
	}
}

// A chunk that straddles two parts is one cached frame. A cold read fetches
// each piece straight into it and allocates the chunk once; a warm re-read
// fetches nothing, allocates nothing of the chunk's size and lends the same
// frame. A chunk whose tail lies in the small last part still costs one Get
// of that part.
func TestStraddlingChunkIsOneFrame(t *testing.T) {
	b, m, ref := chunkedObject(t)
	g := newGateway(t, b, Config{})
	if _, err := g.Reader("chunked.dsf"); err != nil { // the TOC load is not the chunk's
		t.Fatal(err)
	}
	want, err := ref.ReadChunk(3)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ref.Chunk(3)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, first, err := g.ReadChunk("chunked.dsf", 3)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(first, want) {
		t.Fatalf("chunk 3: %v, or bytes differ from the store's own reader", err)
	}
	cold := g.Stats()
	if cold.BackendGets != 2 || cold.FetchBytes != meta.Stored || cold.PartMisses != 1 || cold.PartCacheParts != 1 {
		t.Errorf("cold read of a chunk across parts 0/1: %d fetches moving %d bytes, %d lookups missed, %d ranges cached; want 2 moving %d, 1 and 1",
			cold.BackendGets, cold.FetchBytes, cold.PartMisses, cold.PartCacheParts, meta.Stored)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc >= uint64(meta.Stored)*5/4 {
		t.Errorf("cold read of a %d-byte chunk allocated %d bytes, want < 1.25x the chunk", meta.Stored, alloc)
	}

	const reads = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		_, again, err := g.ReadChunk("chunked.dsf", 3)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &first[0] || cap(again) != len(again) {
			t.Fatal("warm read is not the cached frame, or an append could write past it")
		}
	}
	runtime.ReadMemStats(&after)
	if s := g.Stats(); s.BackendGets != cold.BackendGets || s.PartHits != cold.PartHits+reads {
		t.Errorf("%d warm reads: %d fetches, %d hits; want 0 and %d", reads, s.BackendGets-cold.BackendGets, s.PartHits-cold.PartHits, reads)
	}
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; !raceEnabled && perRead >= 4<<10 {
		t.Errorf("warm read of a %d-byte straddling chunk allocated %d bytes, want < 4 KiB", meta.Stored, perRead)
	}

	if want, err = ref.ReadChunk(7); err != nil {
		t.Fatal(err)
	}
	if _, got, err := g.ReadChunk("chunked.dsf", 7); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunk 7: %v, or bytes differ from the store's own reader", err)
	}
	if n := b.gets[m.Parts[2].Blob]; n != 1 {
		t.Errorf("chunk 7 made %d Gets of the small last part, want 1", n)
	}
}

// Sixteen goroutines reading one cold chunk at once cost one backend fetch:
// the first miss fetches, the rest wait on it or find its range cached.
func TestConcurrentColdChunkReadsFetchOnce(t *testing.T) {
	b, _, ref := chunkedObject(t)
	want, err := ref.ReadChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateway(t, b, Config{})
	const goroutines = 16
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, got, err := g.ReadChunk("chunked.dsf", 1); err != nil || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("concurrent cold read: %v, or bytes differ", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := g.Stats(); s.BackendGets != 1 {
		t.Errorf("%d goroutines reading one cold chunk caused %d backend fetches, want 1", goroutines, s.BackendGets)
	}
}

// Sixteen goroutines reading one cold straddling chunk at once fill its frame
// once, one fetch per piece, and all read the same bytes; a span fill racing
// a ReadRange over the same two parts hands both readers the reference bytes.
func TestConcurrentColdStraddleReadsFillOnce(t *testing.T) {
	b, m, ref := chunkedObject(t)
	want, err := ref.ReadChunk(3)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateway(t, b, Config{})
	if _, err := g.Reader("chunked.dsf"); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, got, err := g.ReadChunk("chunked.dsf", 3); err != nil || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("concurrent cold straddling read: %v, or bytes differ", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := g.Stats(); s.BackendGets != 2 || s.PartCacheParts != 1 {
		t.Errorf("%d goroutines reading one cold chunk across two parts: %d fetches, %d ranges cached; want 2 and 1",
			goroutines, s.BackendGets, s.PartCacheParts)
	}

	serial := serialBytes(t, b, "chunked.dsf")
	both := m.Parts[0].Size + m.Parts[1].Size
	for round := 0; round < 10; round++ {
		g := newGateway(t, b, Config{})
		if _, err := g.Reader("chunked.dsf"); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if _, got, err := g.ReadChunk("chunked.dsf", 3); err != nil || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("round %d: chunk 3: %v, or bytes differ", round, err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if got, err := g.readRange("chunked.dsf", 0, both); err != nil || !bytes.Equal(got, serial[:both]) {
				errs <- fmt.Errorf("round %d: ReadRange over parts 0/1: %v, or bytes differ", round, err)
			}
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// A whole-part fetch racing a sub-range fetch of the same part hands both
// readers the reference bytes, and leaves one cached range: the whole part,
// which contains the other.
func TestConcurrentWholeAndRangeFetchesAgree(t *testing.T) {
	b, m, _ := chunkedObject(t)
	ref := serialBytes(t, b, "chunked.dsf")
	part := m.Parts[0].Size
	for round := 0; round < 20; round++ {
		g := newGateway(t, b, Config{})
		ranges := [][2]int64{{0, part}, {int64(round) * 4096, 256 << 10}}
		start := make(chan struct{})
		errs := make(chan error, len(ranges))
		var wg sync.WaitGroup
		for _, r := range ranges {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := g.readRange("chunked.dsf", r[0], r[1])
				if err != nil || !bytes.Equal(got, ref[r[0]:r[0]+r[1]]) {
					errs <- fmt.Errorf("round %d: ReadRange(%d,%d): %v, or bytes differ", round, r[0], r[1], err)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if s := g.Stats(); s.PartCacheParts != 1 || s.PartCacheBytes != part {
			t.Fatalf("round %d: %d ranges of %d bytes cached, want the whole part alone (%d bytes)",
				round, s.PartCacheParts, s.PartCacheBytes, part)
		}
	}
}

// FuzzReadRange: any two (off, len) read in sequence on a three-part object
// — two parts larger than smallPart, so read by range, and a small last one —
// through a cache of two parts return the reference bytes (clamped to the
// object's end) or an error, never a panic. Each range in bounds is read
// again through View, the chunk path, so span frames and per-part ranges mix
// in the one cache. A read may be served from what an earlier one cached.
func FuzzReadRange(f *testing.F) {
	const partSize = 80 << 10
	b := newBackend(f, partSize)
	writeDSFObject(f, b, "fuzz.dsf", 0, 10, 1) // 160 KiB of chunks + TOC: three parts
	ref := serialBytes(f, b, "fuzz.dsf")
	size := int64(len(ref))
	for _, seed := range [][4]int64{
		{0, size, 8, 100}, {8, 100, 50, 20}, {partSize - 1, 2, partSize - 1, 1},
		{size, 0, size + 1, 0}, {-1, 4, 4, -1}, {0, partSize, 100, 1000},
		{partSize, partSize, partSize + 5, 10}, {1, 1<<63 - 1, 0, size}, // off+len overflows int64
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, off1, len1, off2, len2 int64) {
		g := newGateway(t, b, Config{PartCacheBytes: 2 * partSize})
		e, err := g.open("fuzz.dsf")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int64{{off1, len1}, {off2, len2}} {
			off, length := r[0], r[1]
			got, err := g.readRange("fuzz.dsf", off, length)
			if off < 0 || length < 0 || off > size {
				if err == nil {
					t.Fatalf("ReadRange(%d,%d) on %d bytes returned %d bytes, want an error", off, length, size, len(got))
				}
				continue
			}
			if err != nil {
				t.Fatalf("ReadRange(%d,%d): %v", off, length, err)
			}
			end := size
			if length < size-off {
				end = off + length
			}
			if !bytes.Equal(got, ref[off:end]) {
				t.Fatalf("ReadRange(%d,%d) differs from the reference bytes", off, length)
			}
			if view, err := e.ra.View(off, end-off); err != nil || !bytes.Equal(view, ref[off:end]) {
				t.Fatalf("View(%d,%d): %v, or it differs from the reference bytes", off, end-off, err)
			}
		}
	})
}
