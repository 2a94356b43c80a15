package transform

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"
)

// planeLZ is a one-pass deflate encoder for the planes level 1 gives up on
// but that hold four-byte repeats: a smooth field's low mantissa byte, the
// benchmark field's middle plane. compress/flate's level 1 skips ahead ever
// faster while it finds no match, which is why it only stores such a plane;
// its default level walks hash chains at 37-49 ns/B and turns down every
// four-byte match more than 4 KiB back, which on a plane of near-random
// literals costs ~25 bits against the literals' ~32. planeLZ visits every
// position once, looks at the one candidate its table slot holds, and takes
// every match of four bytes or more the window allows, greedily; its tokens
// are coded by a dynamic Huffman block per lzBlockTokens tokens, or stored
// when that is no longer. On the benchmark field's middle plane its member is
// 7.5 % shorter than the default level's, in less than half its time.
//
// Everything it works with is in the struct, so an encode allocates nothing
// once the destination has room.
type planeLZ struct {
	// table holds, per hash of a four-byte sequence, the offset that
	// sequence was last seen at. An empty slot is offset 0, whose sequence is
	// as good a candidate as any: every candidate is verified.
	table  [1 << lzTableBits]uint32
	tokens [lzBlockTokens]uint32 // one block's literals and matches, see lzMatch
	nt     int
	lit    [numLitLen]uint32 // the block's literal/length symbol counts
	dist   [numDist]uint32   // and distance symbol counts
	huff   huffScratch
	w      bitWriter
}

const (
	// A 16-bit hash: with a table a quarter this size, slot collisions lose
	// so many matches that the benchmark field's middle plane comes out 2 %
	// shorter than the default level makes it instead of 7.5 %, and the
	// smooth field's low plane longer.
	lzTableBits = 16
	lzWindow    = 32 << 10 // deflate's farthest distance
	lzMinMatch  = 4        // the shortest match a table slot can verify
	lzMaxMatch  = 258      // deflate's longest match
	// lzBlockTokens tokens make a block, as in compress/flate: the Huffman
	// tables follow the data at the price of a ~100-byte header each.
	lzBlockTokens = 1 << 14
	// A token is a literal byte, or lzMatch | (length-3)<<15 | (distance-1).
	lzMatch = 1 << 31

	numLitLen = 286 // literals, end of block, 29 length codes
	numDist   = 30
	numCL     = 19 // the code-length alphabet
	endBlock  = 256
)

// gzipHeader is compress/gzip's member header with no name, time or extra
// field: deflate, no flags, MTIME 0, XFL 0, OS unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// appendMember appends plane to dst as one complete gzip member and returns
// the extended slice.
func (z *planeLZ) appendMember(dst, plane []byte) []byte {
	n := len(plane)
	// Every block is at most its stored form, so this is room for all of it:
	// 5 bytes per stored block of up to 64 KiB, a block per lzBlockTokens
	// bytes or more, header, trailer and the bit writer's 8-byte stores.
	dst = slices.Grow(dst, n+n>>10+64)
	z.w = bitWriter{buf: append(dst, gzipHeader[:]...)}
	clear(z.table[:])
	z.nt = 0
	clear(z.lit[:])
	clear(z.dist[:])
	start := 0 // the current block's first byte
	for i := 0; i < n; {
		if z.nt == len(z.tokens) {
			z.flushBlock(plane[start:i], false)
			start = i
		}
		if i+lzMinMatch <= n {
			w := binary.LittleEndian.Uint32(plane[i:])
			slot := &z.table[lzHash(w)]
			c := int(*slot)
			*slot = uint32(i)
			if d := i - c; uint(d-1) < lzWindow && binary.LittleEndian.Uint32(plane[c:]) == w {
				l := lzMinMatch + matchLen(plane[c+lzMinMatch:], plane[i+lzMinMatch:min(n, i+lzMaxMatch)])
				z.tokens[z.nt] = lzMatch | uint32(l-3)<<15 | uint32(d-1)
				z.nt++
				z.lit[endBlock+1+int(lenCode[l-3])]++
				z.dist[distCode(d-1)]++
				// The positions the match covers are candidates too.
				next := i + l
				for i++; i < min(next, n-lzMinMatch+1); i++ {
					z.table[lzHash(binary.LittleEndian.Uint32(plane[i:]))] = uint32(i)
				}
				i = next
				continue
			}
		}
		z.tokens[z.nt] = uint32(plane[i])
		z.nt++
		z.lit[plane[i]]++
		i++
	}
	z.flushBlock(plane[start:], true)
	z.w.align()
	out := binary.LittleEndian.AppendUint32(z.w.buf, crc32.ChecksumIEEE(plane))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	z.w.buf = nil // don't pin the caller's buffer
	return out
}

func lzHash(w uint32) uint32 { return w * 2654435761 >> (32 - lzTableBits) }

// matchLen returns the length of the common prefix of a and b; a is at
// least as long as b.
func matchLen(a, b []byte) int {
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// flushBlock writes the buffered tokens, which encode raw, as one deflate
// block: dynamic Huffman, or stored if that is no longer. It leaves the
// token buffer and the counts empty.
func (z *planeLZ) flushBlock(raw []byte, final bool) {
	z.lit[endBlock]++
	h := &z.huff
	h.lengths(z.lit[:], h.litLen[:], 15)
	h.lengths(z.dist[:], h.distLen[:], 15)
	nlit, ndist := numLitLen, numDist
	for nlit > endBlock+1 && h.litLen[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && h.distLen[ndist-1] == 0 {
		ndist--
	}
	h.runLengths(nlit, ndist)
	h.lengths(h.clFreq[:], h.clLen[:], 7)
	ncl := numCL
	for ncl > 4 && h.clLen[clOrder[ncl-1]] == 0 {
		ncl--
	}

	dynamic := 3 + 5 + 5 + 4 + 3*ncl
	for s, f := range h.clFreq {
		dynamic += int(f) * (int(h.clLen[s]) + int(clExtra[s]))
	}
	for s, f := range z.lit {
		dynamic += int(f) * int(h.litLen[s])
	}
	for c, f := range z.lit[endBlock+1:] {
		dynamic += int(f) * int(lenExtra[c])
	}
	for c, f := range z.dist {
		dynamic += int(f) * (int(h.distLen[c]) + int(distExtra[c]))
	}
	// A stored block is 3 header bits, padding to the byte, LEN and NLEN;
	// every 64 KiB after the first starts at a byte boundary.
	subs := max(1, (len(raw)+0xffff-1)/0xffff)
	stored := 8*len(raw) + 35*subs + 5*(subs-1) + int(-(z.w.n+3))&7

	var fin uint64
	if final {
		fin = 1
	}
	w := &z.w
	if stored <= dynamic {
		for {
			k := min(len(raw), 0xffff)
			last := uint64(0)
			if k == len(raw) {
				last = fin
			}
			w.write(last, 3) // BTYPE 00
			w.align()
			w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(k))
			w.buf = binary.LittleEndian.AppendUint16(w.buf, ^uint16(k))
			w.buf = append(w.buf, raw[:k]...)
			if raw = raw[k:]; len(raw) == 0 {
				break
			}
		}
	} else {
		canonical(h.litLen[:], h.litCode[:])
		canonical(h.distLen[:], h.distCode[:])
		canonical(h.clLen[:], h.clCode[:])
		w.write(fin|2<<1, 3) // BTYPE 10
		w.write(uint64(nlit-257), 5)
		w.write(uint64(ndist-1), 5)
		w.write(uint64(ncl-4), 4)
		for _, s := range clOrder[:ncl] {
			w.write(uint64(h.clLen[s]), 3)
		}
		for _, t := range h.clSyms[:h.ncl] {
			s := t & 0xff
			w.write(uint64(h.clCode[s])|uint64(t>>8)<<h.clLen[s], uint(h.clLen[s]+clExtra[s]))
		}
		for _, t := range z.tokens[:z.nt] {
			if t < lzMatch {
				w.write(uint64(h.litCode[uint8(t)]), uint(h.litLen[uint8(t)]))
				continue
			}
			l, d := uint8(t>>15), t&0x7fff
			lc := lenCode[l]
			s := endBlock + 1 + int(lc)
			w.write(uint64(h.litCode[s])|uint64(uint16(l)+3-lenBase[lc])<<h.litLen[s], uint(h.litLen[s]+lenExtra[lc]))
			dc := distCode(int(d))
			w.write(uint64(h.distCode[dc])|uint64(d+1-uint32(distBase[dc]))<<h.distLen[dc], uint(h.distLen[dc]+distExtra[dc]))
		}
		w.write(uint64(h.litCode[endBlock]), uint(h.litLen[endBlock]))
	}
	z.nt = 0
	clear(z.lit[:])
	clear(z.dist[:])
}

// bitWriter packs deflate's LSB-first bit stream into buf.
type bitWriter struct {
	buf  []byte
	bits uint64
	n    uint
}

// write appends the low nb bits of v, nb <= 32.
func (w *bitWriter) write(v uint64, nb uint) {
	w.bits |= v << w.n
	w.n += nb
	if w.n >= 32 {
		// One 8-byte store into the room appendMember reserved.
		binary.LittleEndian.PutUint64(w.buf[len(w.buf):len(w.buf)+8], w.bits)
		w.buf = w.buf[:len(w.buf)+4]
		w.bits >>= 32
		w.n -= 32
	}
}

// align writes out the pending bits, zero-padded to a whole byte.
func (w *bitWriter) align() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.bits))
		w.bits >>= 8
	}
}

// huffScratch is what building one block's codes needs.
type huffScratch struct {
	litLen   [numLitLen]uint8
	distLen  [numDist]uint8
	clLen    [numCL]uint8
	litCode  [numLitLen]uint16
	distCode [numDist]uint16
	clCode   [numCL]uint16
	// clSyms is the run-length coded sequence of code lengths: a symbol of
	// the code-length alphabet in the low byte, its repeat count's extra
	// bits above.
	clSyms [numLitLen + numDist]uint16
	ncl    int
	clFreq [numCL]uint32
	keys   [numLitLen]uint64
	depth  [numLitLen]uint32
}

// clOrder is the order code-length code lengths are sent in (RFC 1951 3.2.7).
var clOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// clExtra is the extra bits of each code-length symbol: 16 repeats the last
// length 3-6 times, 17 and 18 write 3-10 and 11-138 zeros.
var clExtra = [numCL]uint8{16: 2, 17: 3, 18: 7}

// runLengths codes the concatenated lengths of the first nlit literal/length
// and ndist distance symbols into clSyms, counting clFreq. Runs may cross
// from one table to the other.
func (h *huffScratch) runLengths(nlit, ndist int) {
	var all [numLitLen + numDist]uint8
	copy(all[:], h.litLen[:nlit])
	copy(all[nlit:], h.distLen[:ndist])
	seq := all[:nlit+ndist]
	clear(h.clFreq[:])
	h.ncl = 0
	emit := func(sym uint8, extra int) {
		h.clSyms[h.ncl] = uint16(sym) | uint16(extra)<<8
		h.ncl++
		h.clFreq[sym]++
	}
	for i := 0; i < len(seq); {
		l := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(l, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(l, 0)
		}
	}
}

// lengths sets lens to code lengths of at most limit bits for symbols
// counted freq: a Huffman code, its deepest leaves moved up until it fits.
// Unused symbols get 0, but at least two symbols get a length, so that the
// code is complete, which zlib's inflate demands of every table.
func (h *huffScratch) lengths(freq []uint32, lens []uint8, limit int) {
	keys := h.keys[:0]
	for s, f := range freq {
		if f > 0 {
			keys = append(keys, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(keys) < 2; s++ {
		if freq[s] == 0 {
			keys = append(keys, uint64(s))
		}
	}
	slices.Sort(keys)
	n := len(keys)
	a := h.depth[:n]
	for i, k := range keys {
		a[i] = uint32(k >> 16)
	}
	minimumRedundancy(a)
	// a[i] is now the depth of the i-th least frequent symbol. Count the
	// leaves per depth, deeper ones at the limit, then take leaves off the
	// limit and split a shallower leaf until the Kraft sum is 1 again.
	var count [16]int
	for _, d := range a {
		count[min(int(d), limit)]++
	}
	total := 0
	for d := 1; d <= limit; d++ {
		total += count[d] << (limit - d)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for d := limit - 1; d > 0; d-- {
			if count[d] > 0 {
				count[d]--
				count[d+1] += 2
				break
			}
		}
	}
	clear(lens)
	j := n
	for d := 1; d <= limit; d++ {
		for ; count[d] > 0; count[d]-- {
			j--
			lens[keys[j]&0xffff] = uint8(d)
		}
	}
}

// minimumRedundancy replaces the ascending weights in a (at least two) by
// the depths of an optimal prefix code's leaves for them, in place (Moffat
// and Katajainen, "In-place calculation of minimum-redundancy codes", 1995).
func minimumRedundancy(a []uint32) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		// The lighter of the next internal node and the next leaf, twice.
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Internal nodes' parent pointers become depths, then the leaves are
	// counted off level by level.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// canonical assigns the canonical code of RFC 1951 3.2.2 to lens, bit
// reversed for the LSB-first stream.
func canonical(lens []uint8, codes []uint16) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// Length and distance codes (RFC 1951 3.2.5).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [numDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [numDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// lenCode maps length-3 to its length code. Length 258 has a code of its
	// own: code 27's five extra bits could say 258 too, but inflaters must
	// not be asked to.
	lenCode = func() (t [256]uint8) {
		for c := 0; c < 28; c++ {
			for k := 0; k < 1<<lenExtra[c]; k++ {
				t[int(lenBase[c])-3+k] = uint8(c)
			}
		}
		t[255] = 28
		return t
	}()
	// distCodes maps distance-1 below 256 to its code directly, and above
	// by (distance-1)>>7, where every code spans a multiple of 128.
	distCodes = func() (t [512]uint8) {
		for c := 0; c < numDist; c++ {
			for k := 0; k < 1<<distExtra[c]; k++ {
				if d := int(distBase[c]) - 1 + k; d < 256 {
					t[d] = uint8(c)
				} else {
					t[256+d>>7] = uint8(c)
				}
			}
		}
		return t
	}()
)

// distCode returns the distance code of distance d+1.
func distCode(d int) uint8 {
	if d < 256 {
		return distCodes[d]
	}
	return distCodes[256+d>>7]
}
