package dsf

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"damaris/internal/layout"
)

// The table of contents is gob's wire form of one toc value as a fresh
// gob.Encoder writes it in a process whose first gob type is toc — the type
// description, then the value — written and read here without encoding/gob.
// gob numbers wire types from a process-wide counter and compiles the
// description per stream; here it is one constant, tocPreamble, so the bytes
// do not depend on what else the process encoded and neither side reflects
// or allocates per record. TestTOCCodecMatchesGob holds both sides to gob.

// tocPreamble is gob's description of toc: one message per wire type — 64
// toc, 65 tocRecord, 66 []int64, 67 []tocRecord, 68 tocAttr, 69 []tocAttr —
// each a length, the negated type id and the wire type. (The hex is a
// constant: a typo in it fails every test that writes a TOC.)
var tocPreamble, _ = hex.DecodeString("" +
	"287f03010103746f6301ff8000010201075265636f72647301ff86000105417474727301ff8a0000" +
	"001eff850201010f5b5d6473662e746f635265636f726401ff860001ff820000ff9eff8103010109" +
	"746f635265636f726401ff8200010b01044e616d65010c000109497465726174696f6e0104000106" +
	"536f75726365010400010a4c61796f757444657363010a00010b476c6f62616c537461727401ff84" +
	"00010b476c6f62616c436f756e7401ff84000105436f646563010600010752617753697a65010400" +
	"010653746f72656401040001064f66667365740104000103435243010600000015ff83020101075b" +
	"5d696e74363401ff8400010400001cff890201010d5b5d6473662e746f634174747201ff8a0001ff" +
	"88000027ff8703010107746f634174747201ff8800010201034b6579010c00010556616c7565010c" +
	"000000")

const tocTypeID = 64 // the value message's type

// errNotCanonical rejects a TOC without tocPreamble: only a process that had
// gob-encoded another type first ever wrote one.
var errNotCanonical = errors.New("not the canonical encoding")

// appendUint appends x as gob does: one byte below 128, else the byte count
// negated and the big-endian bytes without leading zeros.
func appendUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := (bits.Len64(x) + 7) / 8
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// fold is gob's unsigned form of a signed integer, the sign in bit 0;
// unfold reverses it.
func fold(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unfold(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// fields appends one gob struct: each non-zero field as its number's delta
// from the previous field's, then its value; a 0 ends the struct.
type fields struct {
	b    []byte
	last int
}

// put appends field n with value x — a string's or a slice's length, whose
// elements the caller appends next — unless x is 0: gob omits zero fields.
func (f *fields) put(n int, x uint64) bool {
	if x == 0 {
		return false
	}
	f.b = appendUint(appendUint(f.b, uint64(n-f.last)), x)
	f.last = n
	return true
}

func putString[S string | []byte](f *fields, n int, s S) {
	if f.put(n, uint64(len(s))) {
		f.b = append(f.b, s...)
	}
}

// appendTOC appends the TOC of recs and attrs: byte for byte what
// gob.NewEncoder(w).Encode(&toc{recs, attrs}) writes in a process whose
// first gob type is toc.
func appendTOC(dst []byte, recs []tocRecord, attrs []tocAttr) []byte {
	const maxUintLen = 9
	dst = append(dst, tocPreamble...)
	// The value message's length leads it: reserve the widest, close the gap
	// once the body is there.
	at := len(dst)
	dst = append(dst, make([]byte, maxUintLen)...)
	t := fields{b: appendUint(dst, fold(tocTypeID)), last: -1}
	if t.put(0, uint64(len(recs))) {
		for i := range recs {
			r, f := &recs[i], fields{b: t.b, last: -1}
			putString(&f, 0, r.Name)
			f.put(1, fold(r.Iteration))
			f.put(2, fold(int64(r.Source)))
			putString(&f, 3, r.LayoutDesc)
			for k, xs := range [2][]int64{r.GlobalStart, r.GlobalCount} {
				if f.put(4+k, uint64(len(xs))) {
					for _, x := range xs {
						f.b = appendUint(f.b, fold(x))
					}
				}
			}
			f.put(6, uint64(r.Codec))
			f.put(7, fold(r.RawSize))
			f.put(8, fold(r.Stored))
			f.put(9, fold(r.Offset))
			f.put(10, uint64(r.CRC))
			t.b = append(f.b, 0)
		}
	}
	if t.put(1, uint64(len(attrs))) {
		for _, a := range attrs {
			f := fields{b: t.b, last: -1}
			putString(&f, 0, a.Key)
			putString(&f, 1, a.Value)
			t.b = append(f.b, 0)
		}
	}
	dst = append(t.b, 0)
	var n [maxUintLen]byte
	l := appendUint(n[:0], uint64(len(dst)-at-maxUintLen))
	copy(dst[at:], l)
	body := copy(dst[at+len(l):], dst[at+maxUintLen:])
	return dst[:at+len(l)+body]
}

// tocReader parses the value message that follows tocPreamble. The first
// error sticks and moves off to the end, so every later read yields zero.
type tocReader struct {
	s   string // the value message: names, attributes and descriptors are substrings of it
	off int
	err error
}

func (d *tocReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: %s", len(tocPreamble)+d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.s)
}

// uint reads an unsigned integer no larger than max, the largest value of
// its field's type.
func (d *tocReader) uint(max uint64) uint64 {
	if d.off >= len(d.s) {
		d.fail("truncated")
		return 0
	}
	x, n := uint64(d.s[d.off]), 0
	if d.off++; x >= 0x80 {
		x, n = 0, -int(int8(x))
	}
	if n > 8 || n > len(d.s)-d.off {
		d.fail("bad unsigned integer")
		return 0
	}
	for i := range n {
		x = x<<8 | uint64(d.s[d.off+i])
	}
	if d.off += n; x > max {
		d.fail("%d overflows its field", x)
		return 0
	}
	return x
}

func (d *tocReader) int() int64 { return unfold(d.uint(math.MaxUint64)) }

// count reads a length or an element count. Every unit of it takes at least
// one of the bytes left, so a larger count is corrupt and is rejected before
// anything is allocated for it.
func (d *tocReader) count() int {
	if n := d.uint(math.MaxUint64); n <= uint64(len(d.s)-d.off) {
		return int(n)
	}
	d.fail("count past the end")
	return 0
}

// str reads a length-prefixed byte string.
func (d *tocReader) str() string {
	n := d.count()
	d.off += n
	return d.s[d.off-n : d.off]
}

// field reads the number of a struct's next field, given the previous one
// and the struct's last; -1 at the struct's end.
func (d *tocReader) field(prev, last int) int {
	delta := d.uint(math.MaxUint64)
	if delta > uint64(last-prev) {
		d.fail("unknown field")
	}
	if delta == 0 || d.err != nil {
		return -1
	}
	return prev + int(delta)
}

// coords is a []int64 as the TOC holds it: where its elements start and how
// many there are.
type coords struct{ at, n int }

// coords reads a []int64 without keeping it.
func (d *tocReader) coords() coords {
	n := d.count()
	c := coords{at: d.off, n: n}
	for range n {
		d.int()
	}
	return c
}

// record is one tocRecord as it decodes: the layout as its descriptor, the
// global block as where its coordinates are.
type record struct {
	name                    string
	iteration               int64
	source                  int
	desc                    string
	start, count            coords
	codec                   Codec
	rawSize, stored, offset int64
	crc                     uint32
}

// record parses the tocRecord at d.off into r.
func (d *tocReader) record(r *record) {
	*r = record{}
	for f := d.field(-1, 10); f >= 0; f = d.field(f, 10) {
		switch f {
		case 0:
			r.name = d.str()
		case 1:
			r.iteration = d.int()
		case 2:
			src := d.int()
			if r.source = int(src); int64(r.source) != src {
				d.fail("source overflows int")
			}
		case 3:
			r.desc = d.str()
		case 4:
			r.start = d.coords()
		case 5:
			r.count = d.coords()
		case 6:
			r.codec = Codec(d.uint(math.MaxUint8))
		case 7:
			r.rawSize = d.int()
		case 8:
			r.stored = d.int()
		case 9:
			r.offset = d.int()
		case 10:
			r.crc = uint32(d.uint(math.MaxUint32))
		}
	}
}

// block appends the coordinates of r's global block to slab, Start then
// Count, and returns the block and the slab. s is the value message r was
// decoded from.
func (r *record) block(s string, slab []int64) (layout.Block, []int64) {
	lo, n := len(slab), r.start.n
	for _, c := range [2]coords{r.start, r.count} {
		d := tocReader{s: s, off: c.at}
		for range c.n {
			slab = append(slab, d.int())
		}
	}
	return layout.Block{Start: slab[lo : lo+n : lo+n], Count: slab[lo+n : len(slab) : len(slab)]}, slab
}

// attr parses the tocAttr at d.off into a.
func (d *tocReader) attr(a *tocAttr) {
	*a = tocAttr{}
	for g := d.field(-1, 1); g >= 0; g = d.field(g, 1) {
		if g == 0 {
			a.Key = d.str()
		} else {
			a.Value = d.str()
		}
	}
}

// tocIndex is a TOC as an open Reader holds it: the value message as one
// string, where each record starts in it, where the attributes start, and
// each distinct layout decoded once. A record decodes from it on every
// access; decodeTOC validated each, so no access fails.
type tocIndex struct {
	s       string
	recs    []int32
	attrs   int32 // where the attribute count is in s; 0 without attributes
	layouts []tocLayout
}

// tocLayout pairs a layout descriptor of the TOC with its decoded layout.
type tocLayout struct {
	desc   string
	layout layout.Layout
}

// decodeTOC parses a TOC appendTOC wrote, strictly: the preamble byte for
// byte, then one value message that fills b, with no field a toc does not
// have and no integer wider than its field, every global block Valid and
// every layout descriptor one layout.Unmarshal takes. check, when not nil,
// sees each record as it decodes, and its error stops the decode. It
// allocates the value message once, as a string, one offset per record, and
// each distinct layout; nothing else grows with the record count.
func decodeTOC(b []byte, check func(i int, r record) error) (tocIndex, error) {
	if !bytes.HasPrefix(b, tocPreamble) {
		return tocIndex{}, errNotCanonical
	}
	b = b[len(tocPreamble):]
	if len(b) > math.MaxInt32 {
		return tocIndex{}, fmt.Errorf("value message of %d bytes, more than its offsets can address", len(b))
	}
	t := tocIndex{s: string(b)}
	d := tocReader{s: t.s}
	if n := d.uint(math.MaxUint64); n != uint64(len(b)-d.off) {
		d.fail("message of %d bytes, %d follow", n, len(b)-d.off)
	}
	if d.int() != tocTypeID {
		d.fail("not a toc")
	}
	for f := d.field(-1, 1); f >= 0; f = d.field(f, 1) {
		at := d.off
		if n := d.count(); f == 0 {
			t.recs = make([]int32, n)
			t.layouts = d.records(t.recs, check)
		} else {
			t.attrs = int32(at)
			var a tocAttr
			for range n {
				d.attr(&a)
			}
		}
	}
	if d.off != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return tocIndex{}, d.err
	}
	return t, nil
}

// records validates len(at) tocRecords, noting where each starts, and
// returns the distinct layouts among the first maxLayoutDescs.
func (d *tocReader) records(at []int32, check func(int, record) error) []tocLayout {
	var (
		r       record
		seen    [maxLayoutDescs]tocLayout
		nseen   int
		scratch [8]int64 // a global block of rank 4; a larger one grows it once
		slab    = scratch[:0]
	)
	for i := range at {
		at[i] = int32(d.off)
		d.record(&r)
		// Writer records a block only when it is Valid; accessors build
		// blocks from valid ones alone.
		if d.err == nil && (r.start.n > 0 || r.count.n > 0) {
			var b layout.Block
			if b, slab = r.block(d.s, slab[:0]); !b.Valid() {
				d.fail("chunk %d: invalid global block", i)
			}
		}
		if d.err != nil {
			return nil
		}
		j := 0
		for j < nseen && seen[j].desc != r.desc {
			j++
		}
		if j == nseen {
			l, err := layout.Unmarshal([]byte(r.desc))
			if err != nil {
				d.fail("chunk %d layout: %v", i, err)
				return nil
			}
			if nseen < len(seen) {
				seen[nseen] = tocLayout{desc: r.desc, layout: l}
				nseen++
			}
		}
		if check != nil {
			if err := check(i, r); err != nil {
				d.err, d.off = err, len(d.s)
				return nil
			}
		}
	}
	return slices.Clone(seen[:nseen])
}

// record decodes record i.
func (t *tocIndex) record(i int) record {
	d := tocReader{s: t.s, off: int(t.recs[i])}
	var r record
	d.record(&r)
	return r
}

// layout returns the layout desc describes: a shared one, or past the first
// maxLayoutDescs distinct descriptors one decoded now.
func (t *tocIndex) layout(desc string) layout.Layout {
	for i := range t.layouts {
		if t.layouts[i].desc == desc {
			return t.layouts[i].layout
		}
	}
	l, _ := layout.Unmarshal([]byte(desc)) // decodeTOC took it
	return l
}

// meta returns r's ChunkMeta. Its global block goes into slab, replaced when
// it has no room by one sized for recsLeft records of the same rank, so the
// blocks of a TOC whose blocks share a rank all live in one allocation.
func (t *tocIndex) meta(r *record, slab []int64, recsLeft int) (ChunkMeta, []int64) {
	m := ChunkMeta{
		Name: r.name, Iteration: r.iteration, Source: r.source, Layout: t.layout(r.desc),
		Codec: r.codec, RawSize: r.rawSize, Stored: r.stored,
	}
	if n := r.start.n; n > 0 {
		if cap(slab)-len(slab) < 2*n {
			slab = make([]int64, 0, min(2*n*recsLeft, len(t.s)-r.start.at))
		}
		m.Global, slab = r.block(t.s, slab)
	}
	return m, slab
}
