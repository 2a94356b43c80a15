package transform

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"damaris/internal/mpi"
)

func TestGzipRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	comp, err := CompressGzipTo(nil, data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Errorf("compression did not shrink repetitive data: %d -> %d", len(data), len(comp))
	}
	got, err := DecompressGzip(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestGzipLevels(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 4096)
	fast, err := CompressGzipTo(nil, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	best, err := CompressGzipTo(nil, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]byte{fast, best} {
		got, err := DecompressGzip(c)
		if err != nil || !bytes.Equal(got, data) {
			t.Error("level round trip failed")
		}
	}
	if _, err := CompressGzipTo(nil, data, 42); err == nil {
		t.Error("invalid level should fail")
	}
	if _, err := CompressGzipTo(nil, data, -3); err == nil {
		t.Error("level below HuffmanOnly should fail")
	}
}

// The full stdlib level range is reachable: 0 really means
// gzip.NoCompression (stored, larger than input) and -2 really means
// gzip.HuffmanOnly, not silent fallbacks to the default level.
func TestGzipFullLevelRange(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		comp, err := CompressGzipTo(nil, data, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		got, err := DecompressGzip(comp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d round trip failed: %v", level, err)
		}
		if level == gzip.NoCompression && len(comp) <= len(data) {
			t.Errorf("NoCompression should store, got %d -> %d bytes", len(data), len(comp))
		}
		if level == gzip.BestCompression && len(comp) >= len(data) {
			t.Errorf("BestCompression did not shrink: %d -> %d bytes", len(data), len(comp))
		}
	}
	huff, _ := CompressGzipTo(nil, data, gzip.HuffmanOnly)
	best, _ := CompressGzipTo(nil, data, gzip.BestCompression)
	if len(huff) <= len(best) {
		t.Errorf("HuffmanOnly (%d bytes) should compress worse than BestCompression (%d bytes)",
			len(huff), len(best))
	}
}

func TestCompressGzipToReusesBuffer(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	want, err := CompressGzipTo(nil, data, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 2*len(data))
	got, err := CompressGzipTo(scratch, data, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("CompressGzipTo output differs from CompressGzip")
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("CompressGzipTo did not reuse the provided buffer")
	}
}

func TestDecompressGzipToSizeHint(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	comp, err := CompressGzipTo(nil, data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// Exact hint: one pass, reuses the buffer.
	dst := make([]byte, 0, len(data))
	got, err := DecompressGzipTo(dst, comp, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("hinted decompress mismatch")
	}
	if &got[0] != &dst[:1][0] {
		t.Error("DecompressGzipTo did not reuse the hinted buffer")
	}
	// Wrong (too small) hint still decodes correctly.
	got, err = DecompressGzipTo(make([]byte, 0, 7), comp, -1)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("undersized hint decode failed: %v", err)
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := DecompressGzip([]byte("not gzip at all")); err == nil {
		t.Error("expected error")
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	sh, err := ShuffleTo(nil, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	// First bytes of each element: 1, 5, 9.
	if sh[0] != 1 || sh[1] != 5 || sh[2] != 9 {
		t.Errorf("shuffle layout wrong: %v", sh)
	}
	got, err := UnshuffleTo(nil, sh, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Error("unshuffle mismatch")
	}
}

func TestShuffleErrors(t *testing.T) {
	if _, err := ShuffleTo(nil, []byte{1, 2, 3}, 4); err == nil {
		t.Error("non-multiple length should fail")
	}
	if _, err := ShuffleTo(nil, []byte{1}, 0); err == nil {
		t.Error("zero element size should fail")
	}
	if _, err := UnshuffleTo(nil, []byte{1, 2, 3}, 2); err == nil {
		t.Error("unshuffle non-multiple should fail")
	}
	if _, err := UnshuffleTo(nil, []byte{1}, -1); err == nil {
		t.Error("unshuffle bad size should fail")
	}
}

func TestShuffleImprovesFloatCompression(t *testing.T) {
	// Smooth field: shuffle should make gzip clearly better.
	xs := make([]float32, 1<<14)
	for i := range xs {
		xs[i] = 300 + 5*float32(math.Sin(float64(i)/500))
	}
	raw := mpi.Float32sToBytes(xs)
	plain, _ := CompressGzipTo(nil, raw, gzip.DefaultCompression)
	sh, _ := ShuffleTo(nil, raw, 4)
	shc, _ := CompressGzipTo(nil, sh, gzip.DefaultCompression)
	if len(shc) >= len(plain) {
		t.Errorf("shuffle did not help: plain=%d shuffled=%d", len(plain), len(shc))
	}
}

// ShuffleTo into a caller's buffer must agree exactly with ShuffleTo into a
// fresh one, reuse the caller's buffer, and round-trip through UnshuffleTo.
func TestShuffleToMatchesShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, es := range []int{1, 2, 3, 4, 8} {
		for _, elems := range []int{0, 1, 7, shuffleBlock - 1, shuffleBlock, shuffleBlock + 3, 4 * shuffleBlock} {
			b := make([]byte, es*elems)
			rng.Read(b)
			want, err := ShuffleTo(nil, b, es)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 0, len(b))
			got, err := ShuffleTo(dst, b, es)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ShuffleTo(es=%d, n=%d) into dst differs from ShuffleTo into nil", es, elems)
			}
			if len(b) > 0 && &got[0] != &dst[:1][0] {
				t.Errorf("ShuffleTo(es=%d, n=%d) did not reuse dst", es, elems)
			}
			back, err := UnshuffleTo(make([]byte, len(b)), got, es)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, b) {
				t.Fatalf("UnshuffleTo(es=%d, n=%d) round trip mismatch", es, elems)
			}
		}
	}
	if _, err := ShuffleTo(nil, []byte{1, 2, 3}, 2); err == nil {
		t.Error("ShuffleTo non-multiple length should fail")
	}
	if _, err := UnshuffleTo(nil, []byte{1, 2, 3}, 0); err == nil {
		t.Error("UnshuffleTo bad element size should fail")
	}
}

// Property: shuffle/unshuffle round-trips for arbitrary data and element sizes.
func TestQuickShuffleRoundTrip(t *testing.T) {
	f := func(b []byte, esRaw uint8) bool {
		es := int(esRaw%8) + 1
		b = b[:len(b)-len(b)%es]
		sh, err := ShuffleTo(nil, b, es)
		if err != nil {
			return false
		}
		got, err := UnshuffleTo(nil, sh, es)
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperCompressionRatioShape(t *testing.T) {
	// A CM1-like smooth 3D field should compress by roughly the paper's 187%
	// with gzip alone, and the per-plane shuffle+gzip the dedicated core
	// runs should do better still. Synthetic data differs from real storms,
	// so assert the ordering and a generous bound, not exact values.
	rng := rand.New(rand.NewSource(42))
	nx, ny, nz := 64, 64, 20
	xs := make([]float32, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				xs[(k*ny+j)*nx+i] = 300 +
					10*float32(math.Sin(float64(i)/9)*math.Cos(float64(j)/7)) -
					0.5*float32(k) +
					float32(rng.NormFloat64()) // turbulent noise
			}
		}
	}
	raw := mpi.Float32sToBytes(xs)
	gz, err := CompressGzipTo(nil, raw, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	planes, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, raw, 4, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's convention: raw/compressed as a percentage.
	gzRatio := 100 * float64(len(raw)) / float64(len(gz))
	planesRatio := 100 * float64(len(raw)) / float64(len(planes))
	if gzRatio < 105 {
		t.Errorf("gzip ratio = %.0f%%, expected meaningful compression", gzRatio)
	}
	if planesRatio <= gzRatio {
		t.Errorf("shuffle+gzip ratio %.0f%% should exceed gzip-only %.0f%%", planesRatio, gzRatio)
	}
	t.Logf("gzip %.0f%%, shuffle+gzip %.0f%%", gzRatio, planesRatio)
}

// A decoded size that is a multiple of flate's 32 KiB window fills an exact
// hint one Read before the stream reports its end; that must not cost a
// second, doubled buffer.
func TestDecompressGzipToExactHintAtWindowMultiple(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data[:len(data)/2])
	comp, err := CompressGzipTo(nil, data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(data))
	got, err := DecompressGzipTo(dst, comp, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("hinted decompress mismatch")
	}
	if cap(got) != cap(dst) || &got[0] != &dst[:1][0] {
		t.Errorf("decode grew the exact hint from %d to %d bytes", cap(dst), cap(got))
	}
}

func BenchmarkShuffleTo(b *testing.B) {
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(data)
	for _, es := range []int{4, 8, 2} {
		for name, f := range map[string]func(dst, b []byte, elemSize int) ([]byte, error){"shuffle": ShuffleTo, "unshuffle": UnshuffleTo} {
			b.Run(fmt.Sprintf("%s%d", name, es), func(b *testing.B) {
				var out []byte
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					out, _ = f(out, data, es)
				}
			})
		}
	}
}

// The word-wide kernels for 4- and 8-byte elements are the byte loop, faster:
// same bytes out for every length, in both directions.
func TestShuffle4And8MatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, es := range []int{4, 8} {
		for _, elems := range []int{0, 1, 2, 3, 7, shuffleBlock + 1, 1023} {
			b := make([]byte, es*elems)
			rng.Read(b)
			want, back := make([]byte, len(b)), make([]byte, len(b))
			shuffleBytes(want, b, es)
			got, err := ShuffleTo(nil, b, es)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ShuffleTo(es=%d, n=%d) differs from the byte loop", es, elems)
			}
			unshuffleBytes(back, want, es)
			if !bytes.Equal(back, b) {
				t.Fatalf("the byte loops do not invert each other (es=%d, n=%d)", es, elems)
			}
			if got, err = UnshuffleTo(nil, want, es); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, b) {
				t.Errorf("UnshuffleTo(es=%d, n=%d) differs from the byte loop", es, elems)
			}
		}
	}
}

// A corrupt chunk must not cost the pool its reader: the decode after a
// failed one allocates bookkeeping, not a gzip.Reader and its 32 KiB window.
func TestDecompressGzipToKeepsReaderOnError(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(17)).Read(data)
	whole, err := CompressGzipTo(nil, data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(data))
	for _, c := range []struct {
		name    string
		corrupt []byte
	}{
		{"bad header", []byte("not gzip at all")},
		{"truncated member", whole[:len(whole)/2]},
		{"bad trailer", append(bytes.Clone(whole[:len(whole)-1]), whole[len(whole)-1]^1)},
	} {
		name, corrupt := c.name, c.corrupt
		if _, err := DecompressGzipTo(dst, corrupt, -1); err == nil {
			t.Fatalf("%s: decode succeeded", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecompressGzipTo(dst, corrupt, -1)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: second decode succeeded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%s: the decode after a failed one allocates %d bytes, want < 4096", name, got)
		}
	}
}
