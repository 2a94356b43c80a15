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
	comp, err := CompressGzip(data, gzip.DefaultCompression)
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
	fast, err := CompressGzip(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	best, err := CompressGzip(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]byte{fast, best} {
		got, err := DecompressGzip(c)
		if err != nil || !bytes.Equal(got, data) {
			t.Error("level round trip failed")
		}
	}
	if _, err := CompressGzip(data, 42); err == nil {
		t.Error("invalid level should fail")
	}
	if _, err := CompressGzip(data, -3); err == nil {
		t.Error("level below HuffmanOnly should fail")
	}
}

// The full stdlib level range is reachable: 0 really means
// gzip.NoCompression (stored, larger than input) and -2 really means
// gzip.HuffmanOnly, not silent fallbacks to the default level.
func TestGzipFullLevelRange(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		comp, err := CompressGzip(data, level)
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
	huff, _ := CompressGzip(data, gzip.HuffmanOnly)
	best, _ := CompressGzip(data, gzip.BestCompression)
	if len(huff) <= len(best) {
		t.Errorf("HuffmanOnly (%d bytes) should compress worse than BestCompression (%d bytes)",
			len(huff), len(best))
	}
}

func TestCompressGzipToReusesBuffer(t *testing.T) {
	data := bytes.Repeat([]byte("damaris "), 1000)
	want, err := CompressGzip(data, gzip.BestSpeed)
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
	comp, err := CompressGzip(data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// Exact hint: one pass, reuses the buffer.
	dst := make([]byte, 0, len(data))
	got, err := DecompressGzipTo(dst, comp)
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
	got, err = DecompressGzipTo(make([]byte, 0, 7), comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("undersized hint decode failed: %v", err)
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := DecompressGzip([]byte("not gzip at all")); err == nil {
		t.Error("expected error")
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(187, 100); r != 187 {
		t.Errorf("Ratio = %v", r)
	}
	if Ratio(10, 0) != 0 {
		t.Error("zero compressed size should give 0")
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	sh, err := Shuffle(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	// First bytes of each element: 1, 5, 9.
	if sh[0] != 1 || sh[1] != 5 || sh[2] != 9 {
		t.Errorf("shuffle layout wrong: %v", sh)
	}
	got, err := Unshuffle(sh, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Error("unshuffle mismatch")
	}
}

func TestShuffleErrors(t *testing.T) {
	if _, err := Shuffle([]byte{1, 2, 3}, 4); err == nil {
		t.Error("non-multiple length should fail")
	}
	if _, err := Shuffle([]byte{1}, 0); err == nil {
		t.Error("zero element size should fail")
	}
	if _, err := Unshuffle([]byte{1, 2, 3}, 2); err == nil {
		t.Error("unshuffle non-multiple should fail")
	}
	if _, err := Unshuffle([]byte{1}, -1); err == nil {
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
	plain, _ := CompressGzip(raw, gzip.DefaultCompression)
	sh, _ := Shuffle(raw, 4)
	shc, _ := CompressGzip(sh, gzip.DefaultCompression)
	if len(shc) >= len(plain) {
		t.Errorf("shuffle did not help: plain=%d shuffled=%d", len(plain), len(shc))
	}
}

// ShuffleTo/UnshuffleTo must agree with Shuffle/Unshuffle exactly (the
// cache-blocked transpose is an optimization, not a format change) and reuse
// caller buffers.
func TestShuffleToMatchesShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, es := range []int{1, 2, 3, 4, 8} {
		for _, elems := range []int{0, 1, 7, shuffleBlock - 1, shuffleBlock, shuffleBlock + 3, 4 * shuffleBlock} {
			b := make([]byte, es*elems)
			rng.Read(b)
			want, err := Shuffle(b, es)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 0, len(b))
			got, err := ShuffleTo(dst, b, es)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ShuffleTo(es=%d, n=%d) differs from Shuffle", es, elems)
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

func TestReduce16RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float32, 10000)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64()*10 + 280)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	enc := ReduceFloat32To16(xs)
	if len(enc) != 20+2*len(xs) {
		t.Fatalf("encoded size = %d", len(enc))
	}
	got, err := RestoreFloat32From16(enc)
	if err != nil {
		t.Fatal(err)
	}
	bound := MaxReductionError(lo, hi)
	for i := range xs {
		if e := math.Abs(float64(got[i]) - float64(xs[i])); e > bound {
			t.Fatalf("element %d error %g exceeds bound %g", i, e, bound)
		}
	}
}

func TestReduce16Degenerate(t *testing.T) {
	// Constant field.
	xs := []float32{5, 5, 5}
	got, err := RestoreFloat32From16(ReduceFloat32To16(xs))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if g != 5 {
			t.Errorf("constant field decoded to %v", g)
		}
	}
	// Empty field.
	if got, err := RestoreFloat32From16(ReduceFloat32To16(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty field: %v, %v", got, err)
	}
	// Non-finite values are clamped, not propagated.
	mixed := []float32{1, float32(math.NaN()), 3, float32(math.Inf(1))}
	dec, err := RestoreFloat32From16(ReduceFloat32To16(mixed))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			t.Error("non-finite leaked through reduction")
		}
	}
}

func TestRestoreErrors(t *testing.T) {
	if _, err := RestoreFloat32From16([]byte("short")); err == nil {
		t.Error("short payload should fail")
	}
	enc := ReduceFloat32To16([]float32{1, 2})
	if _, err := RestoreFloat32From16(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := RestoreFloat32From16(bad); err == nil {
		t.Error("bad magic should fail")
	}
}

// Property: 16-bit reduction error never exceeds the documented bound.
func TestQuickReduce16Bound(t *testing.T) {
	f := func(raw []float32) bool {
		xs := make([]float32, 0, len(raw))
		for _, x := range raw {
			if isFinite32(x) && math.Abs(float64(x)) < 1e30 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		dec, err := RestoreFloat32From16(ReduceFloat32To16(xs))
		if err != nil {
			return false
		}
		bound := MaxReductionError(lo, hi) + 1e-6*math.Max(math.Abs(float64(lo)), math.Abs(float64(hi)))
		for i := range xs {
			if math.Abs(float64(dec[i])-float64(xs[i])) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: shuffle/unshuffle round-trips for arbitrary data and element sizes.
func TestQuickShuffleRoundTrip(t *testing.T) {
	f := func(b []byte, esRaw uint8) bool {
		es := int(esRaw%8) + 1
		b = b[:len(b)-len(b)%es]
		sh, err := Shuffle(b, es)
		if err != nil {
			return false
		}
		got, err := Unshuffle(sh, es)
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexAndQuery(t *testing.T) {
	xs := []float32{0, 1, 2, 3, 10, 11, 12, 13, -5, -4}
	idx, err := IndexFloat32(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("chunks = %d", len(idx))
	}
	if idx[0].Min != 0 || idx[0].Max != 3 {
		t.Errorf("chunk 0 = %+v", idx[0])
	}
	if idx[2].Offset != 8 || idx[2].Count != 2 || idx[2].Min != -5 {
		t.Errorf("tail chunk = %+v", idx[2])
	}
	hits := QueryIndex(idx, 11, 12)
	if len(hits) != 1 || hits[0].Offset != 4 {
		t.Errorf("query hits = %+v", hits)
	}
	if got := QueryIndex(idx, 100, 200); got != nil {
		t.Errorf("out-of-range query = %+v", got)
	}
	if _, err := IndexFloat32(xs, 0); err == nil {
		t.Error("zero chunk size should fail")
	}
}

func TestPaperCompressionRatioShape(t *testing.T) {
	// A CM1-like smooth 3D field should compress by roughly the paper's
	// 187% with gzip alone and far more with 16-bit reduction + gzip
	// (paper: ~600%). Synthetic data differs from real storms, so assert
	// the ordering and generous bounds, not exact values.
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
	gz, _ := CompressGzip(raw, gzip.DefaultCompression)
	gzRatio := Ratio(len(raw), len(gz))

	red := ReduceFloat32To16(xs)
	redSh, _ := Shuffle(red[20:], 2) // shuffle the quantized samples
	redGz, _ := CompressGzip(redSh, gzip.DefaultCompression)
	redRatio := Ratio(len(raw), len(redGz))

	if gzRatio < 105 {
		t.Errorf("gzip ratio = %.0f%%, expected meaningful compression", gzRatio)
	}
	if redRatio <= gzRatio {
		t.Errorf("16-bit+gzip ratio %.0f%% should exceed gzip-only %.0f%%", redRatio, gzRatio)
	}
	if redRatio < 200 {
		t.Errorf("16-bit+gzip ratio = %.0f%%, want at least the 2x from quantization", redRatio)
	}
}

// A decoded size that is a multiple of flate's 32 KiB window fills an exact
// hint one Read before the stream reports its end; that must not cost a
// second, doubled buffer.
func TestDecompressGzipToExactHintAtWindowMultiple(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data[:len(data)/2])
	comp, err := CompressGzip(data, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(data))
	got, err := DecompressGzipTo(dst, comp)
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
	whole, err := CompressGzip(data, gzip.DefaultCompression)
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
		if _, err := DecompressGzipTo(dst, corrupt); err == nil {
			t.Fatalf("%s: decode succeeded", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecompressGzipTo(dst, corrupt)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: second decode succeeded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%s: the decode after a failed one allocates %d bytes, want < 4096", name, got)
		}
	}
}
