// Package dsf implements the Damaris Scientific Format, the self-describing
// chunked file format this reproduction uses where the original Damaris
// persistency layer uses HDF5 (paper §III-C: "our implementation of Damaris
// interfaces with HDF5 by using a custom persistency layer embedded in a
// plugin").
//
// A DSF file holds an arbitrary number of dataset chunks, each identified by
// the paper's ⟨name, iteration, source⟩ tuple, carrying its layout (type +
// extents), its position in the global domain, and an optional per-chunk
// codec (gzip, or byte-shuffle + gzip — the same filters HDF5 offers). File
// structure:
//
//	[magic "DSFv0002"]
//	[chunk payloads ...]
//	[table of contents: encoding/gob's wire form, canonical type ids (toc.go)]
//	[toc offset : 8 bytes LE][toc length : 8 bytes LE][magic "DSFINDEX"]
//
// Chunks stream to disk as they arrive; the table of contents is written
// once at Close, so a writer failure leaves a detectably truncated file
// rather than a silently corrupt one.
//
// Encoding is deterministic: for a fixed chunk sequence and gzip level the
// produced file is byte-identical regardless of how many encode workers
// (see EncodePool) ran the compression or what else the process encoded,
// and the table of contents is serialized in a canonical (sorted-attribute)
// order.
package dsf

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"sync"

	"damaris/internal/layout"
	"damaris/internal/transform"
)

// Format magics. v0002 switched the TOC's attribute encoding from a gob map
// to a key-sorted slice (deterministic bytes); bumping the magic makes old
// files fail loudly instead of silently losing their attributes to gob's
// ignore-unknown-fields decoding.
var (
	headMagic = []byte("DSFv0002")
	tailMagic = []byte("DSFINDEX")
)

// ErrChunkIndex is what Reader.Chunk and Reader.ReadChunk wrap when asked for
// a chunk the file does not have: the caller's fault, not the file's.
var ErrChunkIndex = errors.New("dsf: chunk index out of range")

// Codec selects the per-chunk storage encoding.
type Codec uint8

// Supported codecs.
const (
	// None stores raw bytes.
	None Codec = iota
	// Gzip stores gzip-compressed bytes.
	Gzip
	// ShuffleGzip byte-shuffles elements (by the layout's element size)
	// before gzip — usually the best choice for floating-point fields.
	ShuffleGzip
)

// CodecNamed returns the codec String names; "" is None.
func CodecNamed(name string) (Codec, error) {
	for c := None; c <= ShuffleGzip; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	if name == "" {
		return None, nil
	}
	return None, fmt.Errorf("dsf: unknown codec %q", name)
}

func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case Gzip:
		return "gzip"
	case ShuffleGzip:
		return "shuffle+gzip"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ChunkMeta describes one stored chunk.
type ChunkMeta struct {
	Name      string
	Iteration int64
	Source    int
	Layout    layout.Layout
	Global    layout.Block // position in the global domain (optional)
	Codec     Codec
	RawSize   int64 // bytes before encoding
	Stored    int64 // bytes on disk
}

// tocRecord is the on-disk form of ChunkMeta, layout as its binary
// descriptor. Its fields, their order and their types are the TOC's wire
// format (tocPreamble spells them out): change nothing here.
type tocRecord struct {
	Name        string
	Iteration   int64
	Source      int
	LayoutDesc  []byte
	GlobalStart []int64
	GlobalCount []int64
	Codec       uint8
	RawSize     int64
	Stored      int64
	Offset      int64
	CRC         uint32
}

// tocAttr is one file-level attribute in the on-disk TOC. Attributes are
// serialized as a key-sorted slice (not a map) so TOC bytes are
// deterministic for identical content.
type tocAttr struct {
	Key, Value string
}

// DefaultGzipLevel is the compression level new writers start with.
const DefaultGzipLevel = gzip.DefaultCompression

// writeBufferSize is the bufio buffer in front of the output file: small
// chunks, the TOC and the footer coalesce into large sequential writes
// instead of one syscall per tiny piece.
const writeBufferSize = 256 << 10

// writerScratch is what one object's Writer leaves to the next: the write
// buffer (one per object was the largest single allocation left on the
// persist path), the TOC records and attributes, and the slab the records'
// global coordinates live in. It goes back to writerScratches cleared.
type writerScratch struct {
	bw      *bufio.Writer
	recs    []tocRecord
	attrs   []tocAttr // sorted by key, as the TOC stores them
	globals []int64
}

// writerScratches is the free list of writer scratch. It is a plain list,
// not a sync.Pool: a pool's per-P slots and its clearing at garbage
// collection made it miss now and then, and each miss is a fresh write
// buffer. The list holds as many as were ever in use at once.
var writerScratches struct {
	sync.Mutex
	free []*writerScratch
}

// getScratch takes scratch off the free list, or makes it.
func getScratch() *writerScratch {
	writerScratches.Lock()
	defer writerScratches.Unlock()
	if n := len(writerScratches.free); n > 0 {
		s := writerScratches.free[n-1]
		writerScratches.free = writerScratches.free[:n-1]
		return s
	}
	return &writerScratch{bw: bufio.NewWriterSize(io.Discard, writeBufferSize)}
}

// pinner is a sink that may keep the bytes it is handed instead of copying
// them: store.ObjectWriter's WritePinned.
type pinner interface {
	WritePinned(p []byte) (int, error)
}

// Writer streams chunks into a DSF byte stream. It is not safe for
// concurrent use; parallelism belongs in the encode stage (WriteChunks with
// an EncodePool), never in the byte stream. Every persisted stream's sink is
// a storage backend's ObjectWriter, which Commit publishes once the Writer
// is closed (docs/store.md, "One write path").
type Writer struct {
	pin            pinner // the sink behind bw, when it can keep raw chunks without a copy
	*writerScratch        // recycled; nil once the Writer is closed or aborted
	offset         int64
	level          int // gzip level for Gzip/ShuffleGzip chunks
	closed         bool

	// descs holds the marshalled descriptor of each distinct layout seen so
	// far: the variables of a deployment share a handful, so a chunk's TOC
	// record almost always borrows one instead of marshalling its own.
	descs []layoutDesc
}

// layoutDesc pairs a layout with its marshalled descriptor.
type layoutDesc struct {
	layout layout.Layout
	desc   []byte
}

// maxLayoutDescs bounds Writer.descs and the layouts decodeTOC shares — the
// scans are linear. A stream with more distinct layouts than this marshals
// the excess per chunk, and a Reader decodes it per access.
const maxLayoutDescs = 16

// NewWriter starts a DSF stream on a sink and emits the header. Close
// finishes the stream (TOC + footer) but does not close the sink — the
// caller owns its lifecycle: committing the store.ObjectWriter it created,
// or aborting it. A caller that gives up on the stream calls Abort instead
// of Close.
//
// A sink with WritePinned (store.ObjectWriter) is handed every codec-None
// chunk of at least the write buffer's size through it, unbuffered, and may
// keep the chunk's bytes instead of copying them: the caller leaves them
// unmodified until the sink's Commit or Abort returns.
func NewWriter(out io.Writer) (*Writer, error) {
	w := &Writer{
		writerScratch: getScratch(),
		offset:        int64(len(headMagic)),
		level:         DefaultGzipLevel,
	}
	w.pin, _ = out.(pinner)
	w.bw.Reset(out)
	if _, err := w.bw.Write(headMagic); err != nil {
		w.Abort()
		return nil, fmt.Errorf("dsf: header: %w", err)
	}
	return w, nil
}

// Abort abandons the stream without finishing it: buffered bytes are
// dropped and the write buffer goes back to its free list. The Writer
// accepts no chunks afterwards. Calling it after Close or a second time does
// nothing.
func (w *Writer) Abort() {
	if w.writerScratch == nil {
		return
	}
	w.closed = true
	w.release()
}

// release clears the scratch — the records and attributes reference the
// caller's names — and recycles it, the buffer detached from the sink.
func (w *Writer) release() {
	s := w.writerScratch
	s.bw.Reset(io.Discard)
	clear(s.recs)
	clear(s.attrs)
	s.recs, s.attrs, s.globals = s.recs[:0], s.attrs[:0], s.globals[:0]
	writerScratches.Lock()
	writerScratches.free = append(writerScratches.free, s)
	writerScratches.Unlock()
	w.writerScratch = nil
}

// SetGzipLevel selects the compression level for subsequently written
// Gzip/ShuffleGzip chunks. The full compress/gzip range is accepted:
// gzip.HuffmanOnly (-2) through gzip.BestCompression (9).
func (w *Writer) SetGzipLevel(level int) error {
	if !transform.ValidGzipLevel(level) {
		return fmt.Errorf("dsf: invalid gzip level %d", level)
	}
	w.level = level
	return nil
}

// SetAttribute records a file-level key/value attribute (units, provenance,
// simulation parameters — the "enriched dataset" metadata of §III-A).
// After Close or Abort it does nothing.
func (w *Writer) SetAttribute(key, value string) {
	if w.closed {
		return
	}
	i, found := slices.BinarySearchFunc(w.attrs, key, func(a tocAttr, k string) int { return strings.Compare(a.Key, k) })
	if found {
		w.attrs[i].Value = value
		return
	}
	w.attrs = slices.Insert(w.attrs, i, tocAttr{Key: key, Value: value})
}

// validateChunk checks one chunk before any bytes are spent encoding it.
func (w *Writer) validateChunk(meta ChunkMeta, data []byte) error {
	if w.closed {
		return fmt.Errorf("dsf: write on closed writer")
	}
	if meta.Name == "" {
		return fmt.Errorf("dsf: chunk with empty name")
	}
	if meta.Layout.IsZero() {
		return fmt.Errorf("dsf: chunk %q without layout", meta.Name)
	}
	if int64(len(data)) != meta.Layout.Bytes() {
		return fmt.Errorf("dsf: chunk %q: layout %v wants %d bytes, got %d",
			meta.Name, meta.Layout, meta.Layout.Bytes(), len(data))
	}
	if meta.Codec > ShuffleGzip {
		return fmt.Errorf("dsf: chunk %q: unknown codec %v", meta.Name, meta.Codec)
	}
	return nil
}

// WriteChunk encodes and appends one dataset chunk. data length must match
// meta.Layout.Bytes().
func (w *Writer) WriteChunk(meta ChunkMeta, data []byte) error {
	if err := w.validateChunk(meta, data); err != nil {
		return err
	}
	ec, err := encodeChunk(nil, nil, data, meta.Codec, meta.Layout.Type().Size(), w.level)
	if err != nil {
		return fmt.Errorf("dsf: chunk %q: %w", meta.Name, err)
	}
	err = w.appendEncoded(meta, int64(len(data)), ec)
	ec.release(nil)
	return err
}

// appendEncoded streams one already-encoded chunk and records its TOC entry.
// A raw chunk of at least the write buffer's size goes to a pinning sink
// itself, after the buffer's bytes: the sink keeps the caller's bytes, and
// the stream's bytes are what buffering would have made them.
func (w *Writer) appendEncoded(meta ChunkMeta, rawSize int64, ec encodedChunk) error {
	var err error
	if w.pin != nil && meta.Codec == None && len(ec.stored) >= writeBufferSize {
		if err = w.bw.Flush(); err == nil {
			_, err = w.pin.WritePinned(ec.stored)
		}
	} else {
		_, err = w.bw.Write(ec.stored)
	}
	if err != nil {
		return fmt.Errorf("dsf: chunk %q: %w", meta.Name, err)
	}
	rec := tocRecord{
		Name:       meta.Name,
		Iteration:  meta.Iteration,
		Source:     meta.Source,
		LayoutDesc: w.layoutDesc(meta.Layout),
		Codec:      uint8(meta.Codec),
		RawSize:    rawSize,
		Stored:     int64(len(ec.stored)),
		Offset:     w.offset,
		CRC:        ec.crc,
	}
	if meta.Global.Valid() {
		g, d := len(w.globals), len(meta.Global.Start)
		w.globals = append(append(w.globals, meta.Global.Start...), meta.Global.Count...)
		rec.GlobalStart = w.globals[g : g+d : g+d]
		rec.GlobalCount = w.globals[g+d : g+2*d : g+2*d]
	}
	w.recs = append(w.recs, rec)
	w.offset += int64(len(ec.stored))
	return nil
}

// layoutDesc returns l's marshalled descriptor, shared by every record of
// the stream with an equal layout.
func (w *Writer) layoutDesc(l layout.Layout) []byte {
	for i := range w.descs {
		if w.descs[i].layout.Equal(l) {
			return w.descs[i].desc
		}
	}
	desc := l.Marshal()
	if len(w.descs) < maxLayoutDescs {
		w.descs = append(w.descs, layoutDesc{layout: l, desc: desc})
	}
	return desc
}

// Close writes the table of contents and footer; the sink stays open. The
// TOC, footer and any still-buffered chunk bytes leave in one coalesced
// flush rather than a syscall per piece.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	// The TOC and the footer are appended straight into the write buffer's
	// free space, flushed first when they might not fit (one that outgrows
	// this estimate still lands, through a grown slice).
	if w.bw.Available() < len(tocPreamble)+256*(1+len(w.recs)+len(w.attrs)) {
		if err := w.bw.Flush(); err != nil {
			w.Abort()
			return fmt.Errorf("dsf: flush: %w", err)
		}
	}
	b := appendTOC(w.bw.AvailableBuffer(), w.recs, w.attrs)
	tocLen := len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(w.offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(tocLen))
	if _, err := w.bw.Write(append(b, tailMagic...)); err != nil {
		w.Abort()
		return fmt.Errorf("dsf: toc: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("dsf: flush: %w", err)
	}
	w.release()
	return nil
}

// shuffledScratch recycles the buffers a shuffle+gzip chunk is gunzipped
// into: UnshuffleTo then writes the one rawSize result, so a decode
// allocates its result and nothing else of its size.
var shuffledScratch = sync.Pool{New: func() any { return new([]byte) }}

// decode reverses encodeChunk and returns exactly rawSize (from the TOC)
// bytes or an error. rawSize sizes the decompression buffer, so the decode
// runs in one pass, and bounds it: a stream that inflates past rawSize
// stops one byte later, and a rawSize beyond deflate's ~1032:1 expansion
// limit for the stored bytes is refused before anything is allocated — a
// corrupt TOC never sizes an allocation the stored bytes could not fill.
func decode(stored []byte, c Codec, elemSize int, rawSize int64) ([]byte, error) {
	if rawSize < 0 || (c != None && rawSize > 1032*int64(len(stored))+64) {
		return nil, fmt.Errorf("toc raw size %d is not what %d stored bytes can decode to", rawSize, len(stored))
	}
	raw := stored
	var err error
	switch c {
	case None:
	case Gzip:
		raw, err = transform.DecompressGzipTo(make([]byte, 0, rawSize), stored, int(rawSize))
	case ShuffleGzip:
		sp := shuffledScratch.Get().(*[]byte)
		defer func() {
			poison((*sp)[:cap(*sp)])
			shuffledScratch.Put(sp)
		}()
		if int64(cap(*sp)) < rawSize {
			*sp = make([]byte, 0, rawSize)
		}
		raw, err = transform.DecompressGzipTo((*sp)[:0], stored, int(rawSize))
	default:
		return nil, fmt.Errorf("unknown codec %v", c)
	}
	if err == nil && int64(len(raw)) != rawSize {
		return nil, fmt.Errorf("decoded to %d bytes, toc says %d", len(raw), rawSize)
	}
	if err == nil && c == ShuffleGzip {
		raw, err = transform.UnshuffleTo(make([]byte, rawSize), raw, elemSize)
	}
	return raw, err
}

// Viewer is implemented by sources that can lend the bytes of a range
// instead of copying them into a caller's buffer — a cache of immutable
// blocks, a mapped file. A Reader whose source is a Viewer reads the source
// through ReadAt only while OpenReaderAt loads the header, footer and TOC;
// every chunk read goes through View.
type Viewer interface {
	// View returns exactly n bytes of the stream starting at off. The result
	// is read-only and may alias memory shared with other readers; the
	// source must never write to it again.
	View(off, n int64) ([]byte, error)
}

// Reader reads a DSF stream from any random-access source — a file (Open),
// an in-memory buffer, or a storage backend's ObjectReader (OpenReaderAt).
// It holds the TOC as the stream does and decodes a chunk's record on every
// access (docs/dsf.md, "Reading").
type Reader struct {
	ra     io.ReaderAt
	viewer Viewer // ra, when it can lend chunk bytes without a copy
	size   int64
	closer io.Closer // closed by Close when the Reader owns the source (Open)
	toc    tocIndex
}

// Open reads and validates the file's header, footer and table of contents.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dsf: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dsf: stat: %w", err)
	}
	r, err := OpenReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// OpenReaderAt validates a DSF stream of the given size on any
// random-access source. Close does not close the source; the caller owns
// its lifecycle.
func OpenReaderAt(ra io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{ra: ra, size: size}
	r.viewer, _ = ra.(Viewer)
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

// tocScratch recycles the buffers header, footer and TOC are read into:
// decodeTOC copies what it keeps of the TOC into one string.
var tocScratch = sync.Pool{New: func() any { return new([]byte) }}

func (r *Reader) load() error {
	if r.size < int64(len(headMagic)) {
		return fmt.Errorf("dsf: header: truncated")
	}
	sp := tocScratch.Get().(*[]byte)
	defer func() {
		poison((*sp)[:cap(*sp)])
		tocScratch.Put(sp)
	}()
	if cap(*sp) < 24 {
		*sp = make([]byte, 0, 24) // the footer; the TOC grows it
	}
	head := (*sp)[:len(headMagic)]
	if _, err := r.ra.ReadAt(head, 0); err != nil {
		return fmt.Errorf("dsf: header: %w", err)
	}
	if !bytes.Equal(head, headMagic) {
		return fmt.Errorf("dsf: not a DSF file (bad header magic)")
	}
	if r.size < int64(len(headMagic))+24 {
		return fmt.Errorf("dsf: file truncated (no footer)")
	}
	foot := (*sp)[:24]
	if _, err := r.ra.ReadAt(foot, r.size-24); err != nil {
		return fmt.Errorf("dsf: footer: %w", err)
	}
	if !bytes.Equal(foot[16:24], tailMagic) {
		return fmt.Errorf("dsf: file truncated or corrupt (bad footer magic)")
	}
	tocOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	tocLen := int64(binary.LittleEndian.Uint64(foot[8:]))
	// Bounds-check before any arithmetic that could overflow and before the
	// TOC allocation: a corrupt or hostile footer must fail loudly, never
	// drive a huge make().
	if tocOff < int64(len(headMagic)) || tocLen < 0 || tocOff > r.size-24 ||
		r.size-24-tocOff != tocLen {
		return fmt.Errorf("dsf: inconsistent footer (toc at %d len %d, file %d)", tocOff, tocLen, r.size)
	}
	if int64(cap(*sp)) < tocLen {
		*sp = make([]byte, 0, tocLen)
	}
	tocBytes := (*sp)[:tocLen]
	if _, err := r.ra.ReadAt(tocBytes, tocOff); err != nil {
		return fmt.Errorf("dsf: toc read: %w", err)
	}
	toc, err := decodeTOC(tocBytes, func(i int, c record) error {
		// Every chunk must lie wholly inside the payload region [header,
		// toc). A TOC that says otherwise is corrupt; trusting it would at
		// best read garbage and at worst allocate c.stored bytes on a
		// attacker-chosen 2^60 size.
		if c.stored < 0 || c.rawSize < 0 || c.offset < int64(len(headMagic)) || c.stored > tocOff-c.offset {
			return fmt.Errorf("chunk %d out of bounds (offset %d stored %d, payload ends %d)",
				i, c.offset, c.stored, tocOff)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dsf: toc: %w", err)
	}
	r.toc = toc
	return nil
}

// Chunks lists the chunk metadata in file order, decoded from the TOC: the
// slice and the global blocks in it are the caller's to reorder or rewrite.
// Readers are shared across concurrent requests in the read gateway, so
// internal state must never leak through an accessor.
func (r *Reader) Chunks() []ChunkMeta {
	out := make([]ChunkMeta, len(r.toc.recs))
	var slab []int64
	for i := range out {
		rec := r.toc.record(i)
		out[i], slab = r.toc.meta(&rec, slab, len(out)-i)
	}
	return out
}

// NumChunks returns the chunk count without decoding any metadata.
func (r *Reader) NumChunks() int { return len(r.toc.recs) }

// Chunk returns the i-th chunk's metadata, decoded from the TOC.
func (r *Reader) Chunk(i int) (ChunkMeta, error) {
	if i < 0 || i >= len(r.toc.recs) {
		return ChunkMeta{}, fmt.Errorf("%w: %d not in [0,%d)", ErrChunkIndex, i, len(r.toc.recs))
	}
	rec := r.toc.record(i)
	m, _ := r.toc.meta(&rec, nil, 1)
	return m, nil
}

// Attributes returns the file-level attributes, decoded from the TOC into a
// map of the caller's; of equal keys the last wins.
func (r *Reader) Attributes() map[string]string {
	d, n := tocReader{s: r.toc.s, off: int(r.toc.attrs)}, 0
	if r.toc.attrs > 0 {
		n = d.count()
	}
	out := make(map[string]string, n)
	var a tocAttr
	for range n {
		d.attr(&a)
		out[a.Key] = a.Value
	}
	return out
}

// storedBytes returns the chunk's bytes as the stream holds them: a view
// lent by the source when it is a Viewer, a fresh copy otherwise.
func (r *Reader) storedBytes(rec *record) ([]byte, error) {
	if r.viewer == nil {
		stored := make([]byte, rec.stored)
		_, err := r.ra.ReadAt(stored, rec.offset)
		return stored, err
	}
	v, err := r.viewer.View(rec.offset, rec.stored)
	if err != nil {
		return nil, err
	}
	if int64(len(v)) != rec.stored {
		return nil, fmt.Errorf("view of %d bytes, toc says %d", len(v), rec.stored)
	}
	// cap == len: an append by the caller must never reach the bytes that
	// follow the chunk in the lender's memory.
	return v[:len(v):len(v)], nil
}

// ReadChunk returns the decoded payload of chunk index i, verifying its
// checksum. When the source is a Viewer, the payload of a codec-None chunk
// is the view itself: read-only, and possibly shared with other readers.
func (r *Reader) ReadChunk(i int) ([]byte, error) {
	if i < 0 || i >= len(r.toc.recs) {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrChunkIndex, i, len(r.toc.recs))
	}
	rec := r.toc.record(i)
	stored, err := r.storedBytes(&rec)
	if err != nil {
		return nil, fmt.Errorf("dsf: chunk %d read: %w", i, err)
	}
	if crc := crc32.ChecksumIEEE(stored); crc != rec.crc {
		return nil, fmt.Errorf("dsf: chunk %d checksum mismatch (%08x != %08x)", i, crc, rec.crc)
	}
	data, err := decode(stored, rec.codec, r.toc.layout(rec.desc).Type().Size(), rec.rawSize)
	if err != nil {
		return nil, fmt.Errorf("dsf: chunk %d: %w", i, err)
	}
	return data, nil
}

// Verify reads every chunk, checking checksums and decodability.
func (r *Reader) Verify() error {
	for i := range r.toc.recs {
		if _, err := r.ReadChunk(i); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the underlying source when the Reader owns it (Open);
// for OpenReaderAt sources it is a no-op.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}
