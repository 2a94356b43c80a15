package transform

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// benchField is bench/input.go's field as the benchmark writes it: 280 + v +
// 8·sin(i/600+φ) + N(0, 0.01) as float32, stamped with an iteration number
// every 4 KiB.
func benchField(seed int64, v, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	phase := rng.Float64() * 2 * math.Pi
	for i := 0; i < n/4; i++ {
		x := 280 + float64(v) + 8*math.Sin(float64(i)/600+phase) + rng.NormFloat64()*0.01
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
	}
	for off := 0; off < n; off += 4096 {
		binary.LittleEndian.PutUint64(out[off:], 17)
	}
	return out
}

func float32Field(n int, f func(i int) float64) []byte {
	out := make([]byte, n)
	for i := 0; i < n/4; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(f(i))))
	}
	return out
}

// smoothField is a temperature-like field without noise: level 1 gives up on
// its low mantissa plane, planeLZ does not, so that plane's member is
// planeLZ's.
func smoothField(n int) []byte {
	return float32Field(n, func(i int) float64 { return 280 + 8*math.Sin(float64(i)/600) })
}

type corpusEntry struct {
	name     string
	elemSize int
	data     []byte
}

// planeCorpus is the contract's input set: what the encoder must not make
// bigger, slower to decode, or irreproducible.
func planeCorpus() []corpusEntry {
	const n = 256 << 10
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, n)
	rng.Read(noise)
	ramp := make([]byte, n)
	for i := 0; i < n/4; i++ {
		binary.LittleEndian.PutUint32(ramp[4*i:], uint32(i))
	}
	// Zero outside one blob covering a twentieth of the domain, as a cloud
	// or tracer field is.
	sparse := float32Field(n, func(i int) float64 {
		if i < n/8 || i >= n/8+n/80 {
			return 0
		}
		return 1e-3 * (1 + math.Sin(float64(i)/50) + 0.05*rng.NormFloat64())
	})
	// Isolated values in a zero field: level 1 makes every plane tiny, and
	// level 9 packs them a quarter smaller still — a small fast-pass output
	// is not a good one.
	speckle := float32Field(n, func(int) float64 {
		if rng.Intn(100) == 0 {
			return rng.NormFloat64()
		}
		return 0
	})
	f64 := make([]byte, n)
	for i := 0; i < n/8; i++ {
		x := 280 + 8*math.Sin(float64(i)/600) + rng.NormFloat64()*0.01
		binary.LittleEndian.PutUint64(f64[8*i:], math.Float64bits(x))
	}
	walk := 0.0
	return []corpusEntry{
		{"bench/seed1", 4, benchField(1, 0, n)},
		{"bench/seed2", 4, benchField(2, 1, n)},
		{"bench/seed3", 4, benchField(3, 3, n)},
		{"smooth", 4, smoothField(n)},
		{"noise", 4, noise},
		{"zeros", 4, make([]byte, n)},
		{"ramp", 4, ramp},
		{"sparse", 4, sparse},
		{"speckle", 4, speckle},
		{"float64", 8, f64},
		{"walk", 4, float32Field(n, func(int) float64 { walk += rng.NormFloat64(); return walk })},
	}
}

var planeLevels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression}

// wholeChunk is the encoding ShuffleGzipTo replaced: one member over the
// whole shuffled chunk. It stays here as the size reference.
func wholeChunk(t testing.TB, b []byte, elemSize, level int) []byte {
	t.Helper()
	sh, err := ShuffleTo(nil, b, elemSize)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CompressGzipTo(nil, sh, level)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stdlibDecode decodes with nothing but compress/gzip and UnshuffleTo — what a
// reader that has never heard of planes does.
func stdlibDecode(t testing.TB, enc []byte, elemSize int) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := UnshuffleTo(nil, sh, elemSize)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestShuffleGzipCorpusContract(t *testing.T) {
	for _, e := range planeCorpus() {
		for _, level := range planeLevels {
			t.Run(fmt.Sprintf("%s/level%d", e.name, level), func(t *testing.T) {
				enc, counts, err := (*Encoder)(nil).ShuffleGzipTo(nil, e.data, e.elemSize, level)
				if err != nil {
					t.Fatal(err)
				}
				if got := stdlibDecode(t, enc, e.elemSize); !bytes.Equal(got, e.data) {
					t.Fatal("round trip mismatch")
				}
				var planes int64
				for _, c := range counts {
					planes += c
				}
				if planes != int64(e.elemSize) {
					t.Errorf("decisions %v cover %d planes, want %d", counts, planes, e.elemSize)
				}
				whole := len(wholeChunk(t, e.data, e.elemSize, level))
				// 0.5 % of the stored size, or what the shortcuts may cost by
				// design: 1/256 of the raw size.
				slack := whole / 200
				if s := len(e.data) >> worthShift; s > slack {
					slack = s
				}
				if len(enc) > whole+slack {
					t.Errorf("planes %d B > whole chunk %d B + %d", len(enc), whole, slack)
				}
				t.Logf("whole %d planes %d (%+.2f%%) decisions %v", whole, len(enc),
					100*float64(len(enc)-whole)/float64(whole), counts)
			})
		}
	}
}

// The decisions on the benchmark's own fields at the default level are the
// ones the sizing table in docs/dsf.md promises, for every variable offset:
// the middle plane is noise to level 1 but not to planeLZ, and the high
// mantissa plane of the even offsets (280, 282) dwells on a byte
// boundary at the sine's extremes and packs to ~2 050 B of 65 536, right at
// 1/32 of the plane and well inside the 1/16 the rule allows.
func TestShuffleGzipBenchFieldDecisions(t *testing.T) {
	data := benchField(1, 0, 256<<10)
	sh, _ := ShuffleTo(nil, data, 4)
	n := len(data) / 4
	for j, w := range []PlaneMode{PlaneStored, PlaneLZ, PlaneFast, PlaneFast} {
		_, mode, err := new(Encoder).appendPlane(nil, sh[j*n:(j+1)*n], gzip.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if mode != w {
			t.Errorf("plane %d: %v, want %v", j, mode, w)
		}
	}
	want := PlaneCounts{PlaneStored: 1, PlaneLZ: 1, PlaneFast: 2}
	for seed := int64(1); seed <= 6; seed++ {
		for v := 0; v < 4; v++ {
			_, counts, err := (*Encoder)(nil).ShuffleGzipTo(nil, benchField(seed, v, 256<<10), 4, gzip.DefaultCompression)
			if err != nil {
				t.Fatal(err)
			}
			if counts != want {
				t.Errorf("seed %d v %d: decisions %v, want %v", seed, v, counts, want)
			}
		}
	}
	for _, level := range []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed} {
		_, counts, err := (*Encoder)(nil).ShuffleGzipTo(nil, data, 4, level)
		if err != nil {
			t.Fatal(err)
		}
		if counts != (PlaneCounts{PlaneLevel: 4}) {
			t.Errorf("level %d: decisions %v, want every plane at the level", level, counts)
		}
	}
}

// A plane that is sampled and still goes to the configured level pays for the
// level-1 sample on top (a quarter of a 64 KiB plane), and every member costs
// a reset of its deflate state: 1.7x on the sparse entry, whose whole-chunk
// encode is under a millisecond. The bound is loose enough for a noisy
// machine and tight enough to catch a plane deflated twice at the configured
// level, or level 1 run over planes it will not be kept for.
func TestShuffleGzipCostBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}
	best := func(f func()) time.Duration {
		b := time.Duration(math.MaxInt64)
		for r := 0; r < 5; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	for _, e := range planeCorpus() {
		var sh, out []byte
		whole := best(func() {
			sh, _ = ShuffleTo(sh, e.data, e.elemSize)
			out, _ = CompressGzipTo(out, sh, gzip.DefaultCompression)
		})
		var counts PlaneCounts
		planes := best(func() {
			out, counts, _ = (*Encoder)(nil).ShuffleGzipTo(out, e.data, e.elemSize, gzip.DefaultCompression)
		})
		t.Logf("%-12s whole %8v planes %8v (%.2fx) decisions %v", e.name, whole, planes,
			float64(planes)/float64(whole), counts)
		if planes > whole*7/4+time.Millisecond {
			t.Errorf("%s: planes %v, whole chunk %v", e.name, planes, whole)
		}
	}
}

// The count behind the cost bound: what each gzip writer and planeLZ were
// fed, less the plane's one kept member, is deflate work thrown away. On the
// benchmark's fields that is the level-1 samples and the run plane's 8 KiB
// comparison; planeLZ runs on the middle plane only, and is kept there.
func TestShuffleGzipDiscardedWork(t *testing.T) {
	const (
		chunk = 256 << 10
		// Per chunk: four 16 KiB level-1 samples and 8 KiB at both levels on
		// plane 2. Configured-level trials on planes 0 and 1 added 32 KiB
		// before planeLZ replaced them.
		maxDiscarded = 4*noiseSample + 2*runSample
	)
	const lvl, fst = gzip.DefaultCompression - gzip.HuffmanOnly, fastLevel - gzip.HuffmanOnly
	for seed := int64(1); seed <= 6; seed++ {
		for v := 0; v < 4; v++ {
			sh, _ := ShuffleTo(nil, benchField(seed, v, chunk), 4)
			var e Encoder
			var lvlDiscarded, discarded int64
			for j := 0; j < 4; j++ {
				plane := sh[j*chunk/4 : (j+1)*chunk/4]
				before, beforeLZ := e.fed, e.lzFed
				_, mode, err := e.appendPlane(nil, plane, gzip.DefaultCompression)
				if err != nil {
					t.Fatal(err)
				}
				atLevel, atFast, atLZ := e.fed[lvl]-before[lvl], e.fed[fst]-before[fst], e.lzFed-beforeLZ
				if atLevel >= 2*int64(len(plane)) {
					t.Errorf("seed %d v %d plane %d (%v): %d bytes through the configured level, the plane is %d",
						seed, v, j, mode, atLevel, len(plane))
				}
				switch mode {
				case PlaneLevel:
					atLevel -= int64(len(plane))
				case PlaneLZ:
					atLZ -= int64(len(plane))
				default:
					atFast -= int64(len(plane))
				}
				if atLevel < 0 || atFast < 0 || atLZ < 0 {
					t.Fatalf("seed %d v %d plane %d (%v): kept member not counted (%d, %d, %d)", seed, v, j, mode, atLevel, atFast, atLZ)
				}
				lvlDiscarded += atLevel
				discarded += atLevel + atFast + atLZ
			}
			if lvlDiscarded > runSample {
				t.Errorf("seed %d v %d: %d bytes deflated at the configured level and dropped, want <= %d", seed, v, lvlDiscarded, runSample)
			}
			if discarded > maxDiscarded {
				t.Errorf("seed %d v %d: %d bytes deflated and dropped, want <= %d", seed, v, discarded, maxDiscarded)
			}
		}
	}
}

// Output must not depend on pool state or on which goroutine encodes: cold
// pools, warm pools and concurrent callers all produce the same bytes.
func TestShuffleGzipDeterministic(t *testing.T) {
	corpus := planeCorpus()
	want := make([][]byte, len(corpus))
	for i, e := range corpus {
		var err error
		if want[i], _, err = (*Encoder)(nil).ShuffleGzipTo(nil, e.data, e.elemSize, gzip.DefaultCompression); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []byte
			for r := 0; r < 3; r++ {
				for k := range corpus {
					i := (k + g) % len(corpus)
					got, _, err := (*Encoder)(nil).ShuffleGzipTo(dst, corpus[i].data, corpus[i].elemSize, gzip.DefaultCompression)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[i]) {
						t.Errorf("%s: goroutine %d round %d differs from the cold encode", corpus[i].name, g, r)
					}
					dst = got
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestShuffleGzipToErrors(t *testing.T) {
	if _, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, make([]byte, 8), 4, 10); err == nil {
		t.Error("level 10 should fail")
	}
	if _, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, make([]byte, 7), 4, 1); err == nil {
		t.Error("length not a multiple of the element size should fail")
	}
	if _, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, nil, 0, 1); err == nil {
		t.Error("element size 0 should fail")
	}
}

func TestShuffleGzipToSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	data := benchField(1, 0, 256<<10)
	dst, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, data, 4, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst, _, err = (*Encoder)(nil).ShuffleGzipTo(dst, data, 4, gzip.DefaultCompression)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state ShuffleGzipTo allocates %.1f times per chunk", allocs)
	}
}

// Decoding four members into a buffer with exactly the decoded size as
// capacity (what dsf.decode sizes from the TOC's RawSize) stays one pass: the
// result lives in that buffer and nothing grows it, although each 64 KiB
// plane ends on a 32 KiB window boundary, where flate reports the end of a
// member one Read late.
//
// The smooth field's low plane is one level 1 can only store and planeLZ
// packs: its member is planeLZ's, four dynamic Huffman blocks of this
// package's own writing. To a plain compress/gzip reader it is a deflate
// stream like the others: same bytes, same single pass.
func TestShuffleGzipDecodeOnePass(t *testing.T) {
	smooth := smoothField(256 << 10)
	enc, counts, err := (*Encoder)(nil).ShuffleGzipTo(nil, smooth, 4, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if counts[PlaneLZ] == 0 {
		t.Fatalf("decisions %v: no plane of the smooth field is planeLZ's", counts)
	}
	zr, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	sh := make([]byte, len(smooth)+1)
	if n, err := io.ReadFull(zr, sh); n != len(smooth) || err != io.ErrUnexpectedEOF {
		t.Fatalf("compress/gzip read %d bytes (%v) of a %d-byte chunk with a planeLZ member", n, err, len(smooth))
	}
	if raw, _ := UnshuffleTo(nil, sh[:len(smooth)], 4); !bytes.Equal(raw, smooth) {
		t.Fatal("compress/gzip decodes the planeLZ member to different bytes")
	}
	for _, data := range [][]byte{benchField(1, 0, 256<<10), smooth} {
		decodeOnePass(t, data)
	}
}

func decodeOnePass(t *testing.T, data []byte) {
	enc, _, err := (*Encoder)(nil).ShuffleGzipTo(nil, data, 4, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	hint := make([]byte, 0, len(data))
	got, err := DecompressGzipTo(hint, enc, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) || cap(got) != cap(hint) || &got[0] != &hint[:1][0] {
		t.Errorf("multi-member decode left the exact-capacity buffer (cap %d -> %d)", cap(hint), cap(got))
	}
	if raceEnabled {
		return
	}
	// One byte of room to spare can never need to grow: an exact hint must
	// not allocate more than that. (What both allocate is the reader's
	// bookkeeping — a bytes.Reader, flate's Huffman link tables.)
	decodeInto := func(hint []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			got, err = DecompressGzipTo(hint, enc, -1)
		})
	}
	roomy := decodeInto(make([]byte, 0, len(data)+1))
	exact := decodeInto(hint)
	if err != nil {
		t.Fatal(err)
	}
	if exact > roomy {
		t.Errorf("decode into an exact-capacity buffer allocates %.0f times, %.0f with room to spare", exact, roomy)
	}
}

func FuzzPlaneGzipRoundTrip(f *testing.F) {
	// Planes longer than the sample reach the shortcut logic; with one-byte
	// elements the input is its own plane, which keeps such seeds small.
	noise := make([]byte, noiseSample+1000)
	rand.New(rand.NewSource(9)).Read(noise)
	runs := bytes.Repeat([]byte{7, 7, 7, 7, 7, 7, 7, 9}, noiseSample/8+77)
	sh, _ := ShuffleTo(nil, benchField(1, 0, 4*noiseSample+40), 4)
	f.Add([]byte("damaris"), uint8(0), int8(-1))
	f.Add(noise, uint8(0), int8(-1))
	f.Add(runs, uint8(0), int8(6))
	f.Add(sh[len(sh)/4:len(sh)/2], uint8(0), int8(-1)) // the half-structured plane
	f.Add(append(noise, runs...), uint8(1), int8(2))
	f.Add(benchField(2, 0, 4*noiseSample+40), uint8(2), int8(-1))
	f.Add(runs, uint8(3), int8(-2))
	// Both branches of the four-byte pre-check, with planes around the
	// head's length: noise without a repeat skips planeLZ; noise stamped with
	// a 5-byte pattern every 61 bytes is still nothing level 1 can pack, but
	// goes through planeLZ.
	for _, planeLen := range []int{noiseSample - 1, noiseSample, noiseSample + 1, 2 * noiseSample} {
		for _, sizeSel := range []uint8{2, 3} {
			n := planeLen << sizeSel
			fresh := make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(fresh)
			f.Add(bytes.Clone(fresh), sizeSel, int8(-1))
			// Shuffled, every 1<<sizeSel-th byte is the lowest plane.
			for i := 0; i+5 <= planeLen; i += 61 {
				for k, c := range []byte{3, 1, 4, 1, 5} {
					fresh[(i+k)<<sizeSel] = c
				}
			}
			f.Add(fresh, sizeSel, int8(-1))
		}
	}
	// A planeLZ member that is kept: the low plane of a smooth field.
	smooth, _ := ShuffleTo(nil, smoothField(8*noiseSample), 4)
	f.Add(smooth[:2*noiseSample], uint8(0), int8(-1))
	f.Fuzz(func(t *testing.T, data []byte, sizeSel uint8, level int8) {
		elemSize := 1 << (sizeSel % 4)
		data = data[:len(data)-len(data)%elemSize]
		lv := int(level)
		if !ValidGzipLevel(lv) {
			lv = gzip.DefaultCompression
		}
		enc, counts, err := (*Encoder)(nil).ShuffleGzipTo(nil, data, elemSize, lv)
		if err != nil {
			t.Fatal(err)
		}
		var planes int64
		for _, c := range counts {
			planes += c
		}
		if planes != int64(elemSize) {
			t.Fatalf("decisions %v cover %d planes, want %d", counts, planes, elemSize)
		}
		sh, err := DecompressGzipTo(make([]byte, 0, len(data)), enc, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnshuffleTo(nil, sh, elemSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func BenchmarkShuffleGzipBenchField(b *testing.B) {
	data := benchField(1, 0, 256<<10)
	b.Run("whole", func(b *testing.B) {
		var sh, out []byte
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sh, _ = ShuffleTo(sh, data, 4)
			out, _ = CompressGzipTo(out, sh, gzip.DefaultCompression)
		}
	})
	b.Run("planes", func(b *testing.B) {
		var out []byte
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			out, _, _ = (*Encoder)(nil).ShuffleGzipTo(out, data, 4, gzip.DefaultCompression)
		}
	})
}

func TestRepeats4(t *testing.T) {
	// More four-byte sequences than the table has slots: slots are reused by
	// unrelated sequences throughout, and verification must tell those from
	// repeats.
	crowded := make([]byte, 2<<repeatsBits)
	rand.New(rand.NewSource(5)).Read(crowded)
	seen := make(map[string]bool)
	for i := 0; i+4 <= len(crowded); i++ {
		if seen[string(crowded[i:i+4])] {
			t.Fatal("the collision case has a real repeat: pick another seed")
		}
		seen[string(crowded[i:i+4])] = true
	}
	for _, c := range []struct {
		name string
		s    []byte
		want bool
	}{
		{"empty", nil, false},
		{"three bytes", []byte{7, 7, 7}, false},
		{"one sequence", []byte{7, 7, 7, 7}, false},
		{"no repeat", []byte("abcdefghijklmnop"), false},
		{"distance 1", []byte{1, 7, 7, 7, 7, 7, 2}, true},
		{"three bytes repeat, four do not", []byte("abcXabcYabcZ"), false},
		{"repeat ends on the last byte", []byte("abcd-0123456789-abcd"), true},
		{"repeat starts on the first byte", []byte("abcdabcd"), true},
		{"collisions without a repeat", crowded, false},
		{"a repeat among collisions", append(bytes.Clone(crowded[:len(crowded)/2]), crowded[len(crowded)/2-4:len(crowded)/2]...), true},
	} {
		if got := new(Encoder).repeats4(c.s); got != c.want {
			t.Errorf("%s: repeats4 = %v, want %v", c.name, got, c.want)
		}
	}
	// The table is cleared per call: a sequence seen in one sample is not a
	// repeat in the next.
	var e Encoder
	if e.repeats4([]byte("abcdefgh")) || e.repeats4([]byte("abcdefgh")) {
		t.Error("repeats4 carries sequences over from one call to the next")
	}
}
