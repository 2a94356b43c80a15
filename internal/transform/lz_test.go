package transform

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"testing"
)

func FuzzPlaneLZRoundTrip(f *testing.F) {
	for n := 0; n < 4; n++ {
		f.Add(bytes.Repeat([]byte{5}, n))
	}
	f.Add(bytes.Repeat([]byte{7}, lzMaxMatch))
	f.Add(bytes.Repeat([]byte{7}, 3*lzMaxMatch+5))
	noise := make([]byte, lzWindow+5000)
	rand.New(rand.NewSource(3)).Read(noise)
	// A repeat one byte too far back for the window beside one just inside it.
	far := append(bytes.Clone(noise), noise[:64]...)
	copy(far[lzWindow-100:], noise[:64])
	f.Add(far)
	// Past 64 KiB: a stored block cannot take the plane in one, and a block
	// ends after lzBlockTokens tokens.
	sh, _ := ShuffleTo(nil, benchField(1, 0, 4*(80<<10)), 4)
	f.Add(sh[len(sh)/4 : len(sh)/2])
	f.Add(sh[:len(sh)/4])
	f.Add(sh[len(sh)/2 : 3*len(sh)/4])
	f.Fuzz(func(t *testing.T, data []byte) {
		var z planeLZ
		prefix := []byte("kept")
		out := z.appendMember(bytes.Clone(prefix), data)
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatal("the member overwrote what dst held")
		}
		if got := stdlibDecode(t, out[len(prefix):], 1); !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(got))
		}
	})
}

// Where planeLZ replaces the configured level, its member is no longer than
// compress/flate's default level makes it: the benchmark field's middle
// plane for every seed and variable offset, and the smooth field's low plane.
func TestPlaneLZNoLongerThanDefaultLevel(t *testing.T) {
	var planes [][]byte
	for seed := int64(1); seed <= 6; seed++ {
		for v := 0; v < 4; v++ {
			sh, _ := ShuffleTo(nil, benchField(seed, v, 256<<10), 4)
			planes = append(planes, sh[len(sh)/4:len(sh)/2])
		}
	}
	sh, _ := ShuffleTo(nil, smoothField(256<<10), 4)
	planes = append(planes, sh[:len(sh)/4])
	var e Encoder
	for i, plane := range planes {
		lz := e.lz.appendMember(nil, plane)
		if got := stdlibDecode(t, lz, 1); !bytes.Equal(got, plane) {
			t.Fatalf("plane %d: round trip mismatch", i)
		}
		def, err := e.appendGzipMember(nil, plane, gzip.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if len(lz) > len(def) {
			t.Errorf("plane %d: %d B, the default level's member %d B", i, len(lz), len(def))
		}
		t.Logf("plane %d: %d B, default level %d B (%+.2f%%)", i, len(lz), len(def), 100*float64(len(lz)-len(def))/float64(len(def)))
	}
}

func BenchmarkPlaneLZ(b *testing.B) {
	sh, _ := ShuffleTo(nil, benchField(1, 0, 256<<10), 4)
	plane := sh[len(sh)/4 : len(sh)/2]
	var e Encoder
	var out []byte
	b.Run("lz", func(b *testing.B) {
		b.SetBytes(int64(len(plane)))
		for b.Loop() {
			out = e.lz.appendMember(out[:0], plane)
		}
	})
	b.Run("default", func(b *testing.B) {
		b.SetBytes(int64(len(plane)))
		for b.Loop() {
			out, _ = e.appendGzipMember(out[:0], plane, gzip.DefaultCompression)
		}
	})
}
