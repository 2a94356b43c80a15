package dsf

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"damaris/internal/layout"
)

// encoding/gob is the TOC's reference: these tests, and FuzzTOCDecode, hold
// appendTOC and decodeTOC to it. Production code does not import it.

// toc is the TOC's value: the type tocPreamble describes, which appendTOC
// and decodeTOC encode by hand.
type toc struct {
	Records []tocRecord
	Attrs   []tocAttr
}

// gobTOC is what encoding/gob writes for the TOC of recs and attrs.
func gobTOC(tb testing.TB, recs []tocRecord, attrs []tocAttr) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&toc{Records: recs, Attrs: attrs}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsGob reports how what r's accessors return differs from what gob
// decoded from the same TOC. A chunk's offset and checksum, which no
// accessor returns, come from the record decode ReadChunk reads them from.
func sameAsGob(r *Reader, g toc) error {
	chunks := r.Chunks()
	if len(chunks) != len(g.Records) || r.NumChunks() != len(g.Records) {
		return fmt.Errorf("%d records (NumChunks %d), gob %d", len(chunks), r.NumChunks(), len(g.Records))
	}
	for i, rec := range g.Records {
		want := ChunkMeta{Name: rec.Name, Iteration: rec.Iteration, Source: rec.Source,
			Codec: Codec(rec.Codec), RawSize: rec.RawSize, Stored: rec.Stored}
		want.Layout, _ = layout.Unmarshal(rec.LayoutDesc)
		if len(rec.GlobalStart) > 0 || len(rec.GlobalCount) > 0 {
			want.Global = layout.Block{Start: rec.GlobalStart, Count: rec.GlobalCount}
		}
		if !reflect.DeepEqual(chunks[i], want) {
			return fmt.Errorf("record %d: Chunks() %+v, gob %+v", i, chunks[i], want)
		}
		if m, err := r.Chunk(i); err != nil || !reflect.DeepEqual(m, want) {
			return fmt.Errorf("record %d: Chunk() %+v, %v; gob %+v", i, m, err, want)
		}
		if c := r.toc.record(i); c.offset != rec.Offset || c.crc != rec.CRC {
			return fmt.Errorf("record %d: offset %d crc %08x, gob %d %08x", i, c.offset, c.crc, rec.Offset, rec.CRC)
		}
	}
	want := map[string]string{}
	for _, a := range g.Attrs {
		want[a.Key] = a.Value
	}
	if got := r.Attributes(); !maps.Equal(got, want) {
		return fmt.Errorf("attributes %v, gob %v", got, want)
	}
	return nil
}

// randomTOC draws n records over three shared layouts — zero fields, negative
// iterations and sources, names past 127 bytes, offsets past 2³², CRCs up to
// 1<<32-1 — with global blocks and attributes when asked.
func randomTOC(rng *rand.Rand, n int, globals, attrs bool) ([]tocRecord, []tocAttr) {
	descs := [][]byte{
		layout.MustNew(layout.Float32, 32).Marshal(),
		layout.MustNew(layout.Float64, 4, 8).Marshal(),
		layout.MustNew(layout.Int32, 2, 3, 5).Marshal(),
	}
	sometimes := func(x int64) int64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return x
	}
	name := func(max int) string {
		b := make([]byte, 1+rng.Intn(max))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	recs := make([]tocRecord, n)
	for i := range recs {
		d := rng.Intn(len(descs))
		r := tocRecord{
			Name:       name(200),
			Iteration:  sometimes(rng.Int63n(1<<40) - 1<<39),
			Source:     int(sometimes(rng.Int63n(1<<20) - 1<<10)),
			LayoutDesc: descs[d],
			Codec:      uint8(rng.Intn(3)),
			RawSize:    sometimes(rng.Int63n(1 << 40)),
			Stored:     sometimes(rng.Int63n(1 << 40)),
			Offset:     sometimes(rng.Int63()),
			CRC:        uint32(sometimes(int64(rng.Uint32()))),
		}
		switch rng.Intn(8) {
		case 0:
			r.Iteration, r.Offset = math.MinInt64, math.MaxInt64
		case 1:
			r.CRC = 1<<32 - 1
		}
		if globals && rng.Intn(5) > 0 {
			for k := 0; k <= d; k++ {
				r.GlobalStart = append(r.GlobalStart, rng.Int63n(1<<36))
				r.GlobalCount = append(r.GlobalCount, 1+rng.Int63n(1<<20))
			}
		}
		recs[i] = r
	}
	var as []tocAttr
	if attrs {
		for i := rng.Intn(6); i >= 0; i-- {
			as = append(as, tocAttr{Key: name(140), Value: name(3)[1:]})
		}
	}
	return recs, as
}

func TestTOCCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{0, 1, 8, 64, 1000} {
		for _, globals := range []bool{false, true} {
			for _, attrs := range []bool{false, true} {
				recs, as := randomTOC(rng, n, globals, attrs)
				want := gobTOC(t, recs, as)
				if !bytes.HasPrefix(want, tocPreamble) {
					t.Fatal("gob's type description is not tocPreamble: did this process gob-encode another type first?")
				}
				got := appendTOC([]byte("prefix"), recs, as)
				if !bytes.Equal(got[len("prefix"):], want) {
					t.Fatalf("%d records, globals %v, attrs %v: appendTOC differs from gob\n got %x\nwant %x",
						n, globals, attrs, got[len("prefix"):], want)
				}
				var g toc
				if err := gob.NewDecoder(bytes.NewReader(want)).Decode(&g); err != nil {
					t.Fatal(err)
				}
				index, err := decodeTOC(want, nil)
				if err != nil {
					t.Fatalf("%d records: %v", n, err)
				}
				if err := sameAsGob(&Reader{toc: index}, g); err != nil {
					t.Fatalf("%d records, globals %v, attrs %v: %v", n, globals, attrs, err)
				}
			}
		}
	}
}

// gob numbers wire types from a process-wide counter, so a process that had
// gob-encoded anything before its first TOC wrote other TOC bytes. The child
// this test starts does exactly that; its stream must equal this process's.
func TestTOCBytesIndependentOfProcessGobUse(t *testing.T) {
	const child = "DSF_TOC_TEST_CHILD"
	if os.Getenv(child) != "" {
		type unrelated struct{ A, B int }
		if err := gob.NewEncoder(io.Discard).Encode(unrelated{1, 2}); err != nil {
			t.Fatal(err)
		}
		fmt.Println(hex.EncodeToString(fuzzSeedFile(t, None)))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTOCBytesIndependentOfProcessGobUse$", "-test.count=1")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if want := hex.EncodeToString(fuzzSeedFile(t, None)); !strings.Contains(string(out), want) {
		t.Fatalf("a process that gob-encoded another type first writes other bytes:\n%s\nwant %s", out, want)
	}
}

// tocStream wraps a TOC into a DSF stream with one 8-byte codec-None chunk.
func tocStream(tocBytes []byte) []byte {
	payload := []byte("8 bytes!")
	s := append(append(append([]byte{}, headMagic...), payload...), tocBytes...)
	s = binary.LittleEndian.AppendUint64(s, uint64(len(headMagic)+len(payload)))
	s = binary.LittleEndian.AppendUint64(s, uint64(len(tocBytes)))
	return append(s, tailMagic...)
}

// oneChunkTOC is the TOC of tocStream's chunk, with the given global block.
func oneChunkTOC(start, count []int64) []byte {
	rec := tocRecord{
		Name: "x", LayoutDesc: layout.MustNew(layout.Byte, 8).Marshal(),
		GlobalStart: start, GlobalCount: count,
		RawSize: 8, Stored: 8, Offset: int64(len(headMagic)), CRC: crc32.ChecksumIEEE([]byte("8 bytes!")),
	}
	return appendTOC(nil, []tocRecord{rec}, nil)
}

// Writer records a global block only when it is Valid, and accessors build
// blocks from valid ones alone; a TOC carrying any other block is corrupt,
// and opening it fails.
func TestOpenReaderRejectsInvalidGlobalBlock(t *testing.T) {
	ok := tocStream(oneChunkTOC([]int64{0}, []int64{8}))
	if r, err := OpenReaderAt(bytes.NewReader(ok), int64(len(ok))); err != nil {
		t.Fatal(err)
	} else if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][2][]int64{
		"ranks differ":   {{0, 0}, {8}},
		"zero count":     {{0}, {0}},
		"negative start": {{-1}, {8}},
		"start only":     {{0}, nil},
		"count only":     {nil, {8}},
	} {
		s := tocStream(oneChunkTOC(b[0], b[1]))
		if _, err := OpenReaderAt(bytes.NewReader(s), int64(len(s))); err == nil || !strings.Contains(err.Error(), "global block") {
			t.Errorf("%s: err = %v, want an invalid global block", name, err)
		}
	}
}

// decodeTOC takes the canonical encoding only: anything else is an error,
// before any allocation a count or a length asks for.
func TestDecodeTOCRejects(t *testing.T) {
	valid := oneChunkTOC(nil, nil)
	if _, err := decodeTOC(valid, nil); err != nil {
		t.Fatal(err)
	}
	// msg frames a value message body after the preamble.
	msg := func(body ...byte) []byte {
		return append(append(append([]byte{}, tocPreamble...), byte(len(body)+2), 0xff, 0x80), body...)
	}
	otherIDs := bytes.Clone(valid)
	otherIDs[11]++ // toc's own id in its type description: ff80 → ff81
	trailing := append(bytes.Clone(valid), 0)
	trailing[len(tocPreamble)]++
	for name, b := range map[string][]byte{
		"other type ids":          otherIDs,
		"empty":                   nil,
		"one byte short":          valid[:len(valid)-1],
		"one byte long":           append(bytes.Clone(valid), 0),
		"trailing bytes":          trailing,
		"other value type":        append(append(bytes.Clone(tocPreamble), 3, 0xff, 0x82), 0),
		"unknown toc field":       msg(3, 0),
		"unknown record field":    msg(1, 1, 12, 0, 0),
		"codec overflows uint8":   msg(1, 1, 7, 0xfe, 1, 0, 0, 0),
		"crc overflows uint32":    msg(1, 1, 11, 0xfb, 1, 0, 0, 0, 0, 0, 0),
		"nine-byte integer":       msg(1, 1, 2, 0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0),
		"record count past end":   msg(1, 0x7f),
		"name past end":           msg(1, 1, 1, 0x50, 'a', 0, 0),
		"global count past end":   msg(1, 1, 5, 0x40, 0, 0, 0),
		"unterminated record":     msg(1, 1, 1, 1, 'a'),
		"record without layout":   msg(1, 1, 1, 1, 'a', 0, 0),
		"attribute count too big": msg(2, 0x20, 0),
	} {
		if _, err := decodeTOC(b, nil); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "other type ids" && !errors.Is(err, errNotCanonical) {
			t.Errorf("%s: err = %v, want %v", name, err, errNotCanonical)
		}
	}
}

// testStream writes n chunks of scratchChunks over three layouts, with
// global blocks when asked, and returns the stream.
func testStream(tb testing.TB, n int, global bool) []byte {
	tb.Helper()
	metas, datas := scratchChunks(n, 3, global)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	w.SetAttribute("writer", "test")
	if err := w.WriteChunks(metas, datas, nil); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// openCost is what opening stream allocates, in allocations and bytes, per
// open.
func openCost(t *testing.T, stream []byte) (allocs float64, alloced uint64) {
	open := func() {
		if _, err := OpenReaderAt(bytes.NewReader(stream), int64(len(stream))); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(50, open)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		open()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// What opening a stream allocates does not grow with its chunk count, and
// its bytes are the TOC's once, one offset per chunk and a constant: the
// TOC is read into pooled scratch and kept as one string, records decode
// from it on access, equal layouts share one decoded layout.
func TestOpenReaderAllocsIndependentOfChunkCount(t *testing.T) {
	few, _ := openCost(t, testStream(t, 8, true))
	stream := testStream(t, 64, true)
	many, alloced := openCost(t, stream)
	t.Logf("allocs per open: %.0f for 8 chunks, %.0f for 64 (%d bytes)", few, many, alloced)
	if many > few+2 {
		t.Errorf("opening 64 chunks allocates %.0f, 8 chunks %.0f: the count grows with the chunks", many, few)
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of the TOC scratch under -race
	}
	// Each of the stream's three layouts costs one allocation: the extents
	// layout.Unmarshal decodes and keeps.
	const maxOpenAllocs = 8
	if many > maxOpenAllocs {
		t.Errorf("opening 64 chunks allocates %.0f times, want at most %d", many, maxOpenAllocs)
	}
	const perChunk, constant = 8, 1024
	tocLen := binary.LittleEndian.Uint64(stream[len(stream)-16:])
	if bound := tocLen + 64*perChunk + constant; alloced > bound {
		t.Errorf("opening 64 chunks with a %d-byte TOC allocates %d bytes, bound %d (the TOC once, %d per chunk, %d)",
			tocLen, alloced, bound, perChunk, constant)
	}
}

// Chunks is one allocation, the slice it returns, on a stream without
// global blocks: records decode from the TOC, names are substrings of it,
// layouts are shared, so nothing is copied per chunk.
func TestChunksIsOneAllocation(t *testing.T) {
	stream := testStream(t, 64, false)
	r, err := OpenReaderAt(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { r.Chunks() }); n != 1 {
		t.Errorf("Chunks() of 64 chunks allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Chunk(5) }); n != 0 {
		t.Errorf("Chunk(5) allocates %.0f times, want 0", n)
	}
}
