package gateway

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

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
// bytes that follow it.
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
}

// Chunks that straddle parts are assembled and compressed chunks decoded
// out of the views; both must equal what dsf reads over Backend.Open.
func TestStraddlingAndGzipChunksMatchStoreReader(t *testing.T) {
	for _, codec := range []dsf.Codec{dsf.None, dsf.Gzip, dsf.ShuffleGzip} {
		b := newBackend(t, 1000) // 16 KiB chunks: every uncompressed one straddles
		name := fmt.Sprintf("%v.dsf", codec)
		writeDSFObjectCodec(t, b, name, 0, 4, 3, codec)
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
				view, err := g.ReadRange("evict.dsf", off, length)
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

// A part the cache can never admit — a file:// object is one part however
// large — must be read by range, not fetched whole on every read.
func TestUncacheablePartIsReadByRange(t *testing.T) {
	b, err := store.Open("file://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	writeDSFObject(t, b, "big.dsf", 0, 256, 1) // 256 x 16 KiB = 4 MiB
	ref := storeReader(t, b, "big.dsf")
	g := newGateway(t, b, Config{PartCacheBytes: 1 << 20})

	before := b.Stats().GetBytes
	for i := 0; i < ref.NumChunks(); i += 5 {
		want, err := ref.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		before += int64(len(want)) // the reference read is not the gateway's
		_, got, err := g.ReadChunk("big.dsf", i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d differs from the store's own reader", i)
		}
	}
	s := g.Stats()
	moved := s.FetchBytes + b.Stats().GetBytes - before
	// Both counters see each ranged read once; the TOC load (header, footer
	// and ~40 KiB of TOC for 256 chunks) is moved but not served.
	if limit := 2 * (s.BytesServed + 64<<10); moved > limit {
		t.Errorf("serving %d bytes of a 4 MiB object behind a 1 MiB cache moved %d, want <= %d",
			s.BytesServed, moved, limit)
	}
	if s.PartCacheParts != 0 {
		t.Errorf("%d parts cached, want none: the only part is larger than the cache", s.PartCacheParts)
	}
}

// FuzzReadRange: any (off, len) on a small three-part object returns the
// reference bytes (clamped to the object's end) or an error, never a panic.
func FuzzReadRange(f *testing.F) {
	b := newBackend(f, 8<<10)
	writeDSFObject(f, b, "fuzz.dsf", 0, 1, 1) // 16 KiB chunk + TOC: three parts
	ref := serialBytes(f, b, "fuzz.dsf")
	g := newGateway(f, b, Config{})
	size := int64(len(ref))
	for _, seed := range [][2]int64{
		{0, size}, {8, 100}, {8<<10 - 1, 2}, {size, 0}, {size + 1, 0}, {-1, 4}, {4, -1},
		{1, 1<<63 - 1}, // off+len overflows int64
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, off, length int64) {
		got, err := g.ReadRange("fuzz.dsf", off, length)
		if off < 0 || length < 0 || off > size {
			if err == nil {
				t.Fatalf("ReadRange(%d,%d) on %d bytes returned %d bytes, want an error", off, length, size, len(got))
			}
			return
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
	})
}
