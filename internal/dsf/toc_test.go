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
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"slices"
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

// sameAsGob reports how what decodeTOC returned differs from what gob
// decoded from the same bytes.
func sameAsGob(entries []entry, attrs []tocAttr, g toc) error {
	if len(entries) != len(g.Records) {
		return fmt.Errorf("%d records, gob %d", len(entries), len(g.Records))
	}
	for i, rec := range g.Records {
		want := entry{
			ChunkMeta: ChunkMeta{Name: rec.Name, Iteration: rec.Iteration, Source: rec.Source,
				Codec: Codec(rec.Codec), RawSize: rec.RawSize, Stored: rec.Stored},
			Offset: rec.Offset, CRC: rec.CRC,
		}
		want.Layout, _ = layout.Unmarshal(rec.LayoutDesc)
		if len(rec.GlobalStart) > 0 || len(rec.GlobalCount) > 0 {
			want.Global = layout.Block{Start: rec.GlobalStart, Count: rec.GlobalCount}
		}
		if !reflect.DeepEqual(entries[i], want) {
			return fmt.Errorf("record %d: %+v, gob %+v", i, entries[i], want)
		}
	}
	if !slices.Equal(attrs, g.Attrs) {
		return fmt.Errorf("attributes %v, gob %v", attrs, g.Attrs)
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
				entries, decoded, err := decodeTOC(want)
				if err != nil {
					t.Fatalf("%d records: %v", n, err)
				}
				if err := sameAsGob(entries, decoded, g); err != nil {
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

// Writer records a global block only when it is Valid, and Chunks deep-copies
// only valid blocks; a TOC carrying any other block is corrupt, and opening
// it fails instead of handing out slices of reader state.
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
	if _, _, err := decodeTOC(valid); err != nil {
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
		if _, _, err := decodeTOC(b); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "other type ids" && !errors.Is(err, errNotCanonical) {
			t.Errorf("%s: err = %v, want %v", name, err, errNotCanonical)
		}
	}
}

// What opening a stream allocates does not grow with its chunk count: the
// names share one copy of the TOC, equal layouts one decoded layout, the
// global blocks one slab.
func TestOpenReaderAllocsIndependentOfChunkCount(t *testing.T) {
	allocs := func(chunks int) float64 {
		metas, datas := scratchChunks(chunks, 3, true)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
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
		stream := buf.Bytes()
		return testing.AllocsPerRun(50, func() {
			if _, err := OpenReaderAt(bytes.NewReader(stream), int64(len(stream))); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(8), allocs(64)
	t.Logf("allocs per open: %.0f for 8 chunks, %.0f for 64", few, many)
	if many > few+2 {
		t.Errorf("opening 64 chunks allocates %.0f, 8 chunks %.0f: the count grows with the chunks", many, few)
	}
}
