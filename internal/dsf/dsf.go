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
//	[gob-encoded table of contents]
//	[toc offset : 8 bytes LE][toc length : 8 bytes LE][magic "DSFINDEX"]
//
// Chunks stream to disk as they arrive; the table of contents is written
// once at Close, so a writer failure leaves a detectably truncated file
// rather than a silently corrupt one.
//
// Encoding is deterministic: for a fixed chunk sequence and gzip level the
// produced file is byte-identical regardless of how many encode workers
// (see EncodePool) ran the compression, and the table of contents is
// serialized in a canonical (sorted-attribute) order.
package dsf

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
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

// tocRecord is the on-disk form of ChunkMeta (gob-friendly: layout as its
// binary descriptor).
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

type toc struct {
	Records []tocRecord
	Attrs   []tocAttr
}

// DefaultGzipLevel is the compression level new writers start with.
const DefaultGzipLevel = gzip.DefaultCompression

// writeBufferSize is the bufio buffer in front of the output file: small
// chunks, the TOC and the footer coalesce into large sequential writes
// instead of one syscall per tiny piece.
const writeBufferSize = 256 << 10

// bufPool recycles the write buffers: one per object was the largest single
// allocation left on the persist path.
var bufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, writeBufferSize) }}

// Writer streams chunks into a DSF byte stream. It is not safe for
// concurrent use; parallelism belongs in the encode stage (WriteChunks with
// an EncodePool), never in the byte stream. The sink can be a file (Create)
// or any io.Writer (NewWriter) — notably a storage backend's ObjectWriter,
// which is how DSF streams reach object stores.
type Writer struct {
	out    io.Writer     // underlying sink, behind bw
	closer io.Closer     // closed by Close when the Writer owns the sink (Create)
	bw     *bufio.Writer // pooled; nil once the Writer is closed or aborted
	offset int64
	recs   []tocRecord
	attrs  []tocAttr // sorted by key, as the TOC stores them
	level  int       // gzip level for Gzip/ShuffleGzip chunks
	closed bool

	// descs holds the marshalled descriptor of each distinct layout seen so
	// far: the variables of a deployment share a handful, so a chunk's TOC
	// record almost always borrows one instead of marshalling its own.
	descs  []layoutDesc
	tocLen int64 // bytes of TOC written by Close, for the footer
}

// layoutDesc pairs a layout with its marshalled descriptor.
type layoutDesc struct {
	layout layout.Layout
	desc   []byte
}

// maxLayoutDescs bounds Writer.descs — the scan is linear. A stream with more
// distinct layouts than this marshals the excess per chunk.
const maxLayoutDescs = 16

// NewWriter starts a DSF stream on an arbitrary sink and emits the header.
// Close finishes the stream (TOC + footer) but does not close the sink —
// the caller owns its lifecycle (e.g. committing a store.ObjectWriter). A
// caller that gives up on the stream calls Abort instead of Close.
func NewWriter(out io.Writer) (*Writer, error) {
	w := &Writer{
		out:    out,
		bw:     bufPool.Get().(*bufio.Writer),
		offset: int64(len(headMagic)),
		attrs:  make([]tocAttr, 0, 4),
		level:  DefaultGzipLevel,
	}
	w.bw.Reset(out)
	if _, err := w.bw.Write(headMagic); err != nil {
		w.Abort()
		return nil, fmt.Errorf("dsf: header: %w", err)
	}
	return w, nil
}

// Create opens path for writing and emits the header. Close closes the
// file.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("dsf: %w", err)
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Abort abandons the stream without finishing it: buffered bytes are
// dropped, the write buffer goes back to its pool and an owned sink (Create)
// is closed. The Writer accepts no chunks afterwards. Calling it after Close
// or a second time does nothing.
func (w *Writer) Abort() {
	if w.bw == nil {
		return
	}
	w.closed = true
	w.releaseBuffer()
	if w.closer != nil {
		w.closer.Close()
	}
}

// releaseBuffer recycles the write buffer, detached from the sink.
func (w *Writer) releaseBuffer() {
	w.bw.Reset(io.Discard)
	bufPool.Put(w.bw)
	w.bw = nil
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
func (w *Writer) SetAttribute(key, value string) {
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
func (w *Writer) appendEncoded(meta ChunkMeta, rawSize int64, ec encodedChunk) error {
	if _, err := w.bw.Write(ec.stored); err != nil {
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
		rec.GlobalStart = append([]int64(nil), meta.Global.Start...)
		rec.GlobalCount = append([]int64(nil), meta.Global.Count...)
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

// StoredBytes returns the number of payload bytes written so far (excluding
// header and TOC) — the figure throughput is computed from.
func (w *Writer) StoredBytes() int64 { return w.offset - int64(len(headMagic)) }

// Close writes the table of contents and footer and, when the Writer owns
// its sink (Create), closes it. The TOC, footer and any still-buffered
// chunk bytes leave in one coalesced flush rather than a syscall per piece.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	// The TOC is encoded straight into the pooled write buffer — no staging
	// buffer per object; tocLen counts what the encoder wrote.
	t := toc{Records: w.recs, Attrs: w.attrs}
	w.tocLen = 0
	if err := gob.NewEncoder(tocSink{w}).Encode(&t); err != nil {
		w.Abort()
		return fmt.Errorf("dsf: toc: %w", err)
	}
	var foot [24]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(w.offset))
	binary.LittleEndian.PutUint64(foot[8:], uint64(w.tocLen))
	copy(foot[16:], tailMagic)
	if _, err := w.bw.Write(foot[:]); err != nil {
		w.Abort()
		return fmt.Errorf("dsf: footer: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("dsf: flush: %w", err)
	}
	w.releaseBuffer()
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// tocSink is the io.Writer the TOC encoder sees: the Writer's buffer, with
// the bytes counted for the footer.
type tocSink struct{ w *Writer }

func (s tocSink) Write(p []byte) (int, error) {
	n, err := s.w.bw.Write(p)
	s.w.tocLen += int64(n)
	return n, err
}

// decode reverses encodeChunk. rawSize (from the TOC) sizes the
// decompression buffer so the decode runs in one pass instead of growing
// through io.ReadAll; an implausible value — negative, ≥2 GiB, or beyond
// deflate's ~1032:1 expansion limit for the stored bytes — degrades to
// unhinted decoding rather than trusting a corrupt TOC with a huge upfront
// allocation.
func decode(stored []byte, c Codec, elemSize int, rawSize int64) ([]byte, error) {
	hint := func() []byte {
		if rawSize > 0 && rawSize < 1<<31 && rawSize <= 1032*int64(len(stored))+64 {
			return make([]byte, 0, rawSize)
		}
		return nil
	}
	switch c {
	case None:
		return stored, nil
	case Gzip:
		return transform.DecompressGzipTo(hint(), stored)
	case ShuffleGzip:
		raw, err := transform.DecompressGzipTo(hint(), stored)
		if err != nil {
			return nil, err
		}
		return transform.Unshuffle(raw, elemSize)
	default:
		return nil, fmt.Errorf("unknown codec %v", c)
	}
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
type Reader struct {
	ra     io.ReaderAt
	viewer Viewer // ra, when it can lend chunk bytes without a copy
	size   int64
	closer io.Closer // closed by Close when the Reader owns the source (Open)
	recs   []tocRecord
	attrs  map[string]string
	metas  []ChunkMeta
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

func (r *Reader) load() error {
	head := make([]byte, len(headMagic))
	if r.size < int64(len(headMagic)) {
		return fmt.Errorf("dsf: header: truncated")
	}
	if _, err := r.ra.ReadAt(head, 0); err != nil {
		return fmt.Errorf("dsf: header: %w", err)
	}
	if !bytes.Equal(head, headMagic) {
		return fmt.Errorf("dsf: not a DSF file (bad header magic)")
	}
	if r.size < int64(len(headMagic))+24 {
		return fmt.Errorf("dsf: file truncated (no footer)")
	}
	var foot [24]byte
	if _, err := r.ra.ReadAt(foot[:], r.size-24); err != nil {
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
	tocBytes := make([]byte, tocLen)
	if _, err := r.ra.ReadAt(tocBytes, tocOff); err != nil {
		return fmt.Errorf("dsf: toc read: %w", err)
	}
	var t toc
	if err := gob.NewDecoder(bytes.NewReader(tocBytes)).Decode(&t); err != nil {
		return fmt.Errorf("dsf: toc decode: %w", err)
	}
	r.recs = t.Records
	r.attrs = make(map[string]string, len(t.Attrs))
	for _, a := range t.Attrs {
		r.attrs[a.Key] = a.Value
	}
	r.metas = make([]ChunkMeta, len(r.recs))
	for i, rec := range r.recs {
		// Every chunk must lie wholly inside the payload region [header,
		// toc). A TOC that says otherwise is corrupt; trusting it would at
		// best read garbage and at worst allocate rec.Stored bytes on a
		// attacker-chosen 2^60 size.
		if rec.Stored < 0 || rec.RawSize < 0 || rec.Offset < int64(len(headMagic)) ||
			rec.Stored > tocOff-rec.Offset {
			return fmt.Errorf("dsf: chunk %d out of bounds (offset %d stored %d, payload ends %d)",
				i, rec.Offset, rec.Stored, tocOff)
		}
		l, err := layout.Unmarshal(rec.LayoutDesc)
		if err != nil {
			return fmt.Errorf("dsf: chunk %d layout: %w", i, err)
		}
		m := ChunkMeta{
			Name:      rec.Name,
			Iteration: rec.Iteration,
			Source:    rec.Source,
			Layout:    l,
			Codec:     Codec(rec.Codec),
			RawSize:   rec.RawSize,
			Stored:    rec.Stored,
		}
		if len(rec.GlobalStart) > 0 {
			m.Global = layout.Block{Start: rec.GlobalStart, Count: rec.GlobalCount}
		}
		r.metas[i] = m
	}
	return nil
}

// Chunks lists the chunk metadata in file order. The returned slice is a
// copy (Global blocks included) — callers may reorder or rewrite it without
// corrupting reader state, the same contract Collection.Files() gives.
// Readers are shared across concurrent requests in the read gateway, so
// internal state must never leak through an accessor.
func (r *Reader) Chunks() []ChunkMeta {
	out := make([]ChunkMeta, len(r.metas))
	for i, m := range r.metas {
		out[i] = copyMeta(m)
	}
	return out
}

// copyMeta deep-copies the meta's aliasable parts. Layout is already
// defensive (Extents returns a copy); Global's Start/Count slices are not.
func copyMeta(m ChunkMeta) ChunkMeta {
	if m.Global.Valid() {
		m.Global = layout.Block{
			Start: append([]int64(nil), m.Global.Start...),
			Count: append([]int64(nil), m.Global.Count...),
		}
	}
	return m
}

// NumChunks returns the chunk count without copying any metadata.
func (r *Reader) NumChunks() int { return len(r.metas) }

// Chunk returns a copy of the i-th chunk's metadata.
func (r *Reader) Chunk(i int) (ChunkMeta, error) {
	if i < 0 || i >= len(r.metas) {
		return ChunkMeta{}, fmt.Errorf("%w: %d not in [0,%d)", ErrChunkIndex, i, len(r.metas))
	}
	return copyMeta(r.metas[i]), nil
}

// Attributes returns a copy of the file-level attributes; mutating it does
// not touch reader state.
func (r *Reader) Attributes() map[string]string {
	out := make(map[string]string, len(r.attrs))
	for k, v := range r.attrs {
		out[k] = v
	}
	return out
}

// Attribute returns one file-level attribute without copying the map.
func (r *Reader) Attribute(key string) (string, bool) {
	v, ok := r.attrs[key]
	return v, ok
}

// storedBytes returns the chunk's bytes as the stream holds them: a view
// lent by the source when it is a Viewer, a fresh copy otherwise.
func (r *Reader) storedBytes(rec tocRecord) ([]byte, error) {
	if r.viewer == nil {
		stored := make([]byte, rec.Stored)
		_, err := r.ra.ReadAt(stored, rec.Offset)
		return stored, err
	}
	v, err := r.viewer.View(rec.Offset, rec.Stored)
	if err != nil {
		return nil, err
	}
	if int64(len(v)) != rec.Stored {
		return nil, fmt.Errorf("view of %d bytes, toc says %d", len(v), rec.Stored)
	}
	// cap == len: an append by the caller must never reach the bytes that
	// follow the chunk in the lender's memory.
	return v[:len(v):len(v)], nil
}

// ReadChunk returns the decoded payload of chunk index i, verifying its
// checksum. When the source is a Viewer, the payload of a codec-None chunk
// is the view itself: read-only, and possibly shared with other readers.
func (r *Reader) ReadChunk(i int) ([]byte, error) {
	if i < 0 || i >= len(r.recs) {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrChunkIndex, i, len(r.recs))
	}
	rec := r.recs[i]
	stored, err := r.storedBytes(rec)
	if err != nil {
		return nil, fmt.Errorf("dsf: chunk %d read: %w", i, err)
	}
	if crc := crc32.ChecksumIEEE(stored); crc != rec.CRC {
		return nil, fmt.Errorf("dsf: chunk %d checksum mismatch (%08x != %08x)", i, crc, rec.CRC)
	}
	data, err := decode(stored, Codec(rec.Codec), r.metas[i].Layout.Type().Size(), rec.RawSize)
	if err != nil {
		return nil, fmt.Errorf("dsf: chunk %d: %w", i, err)
	}
	if int64(len(data)) != rec.RawSize {
		return nil, fmt.Errorf("dsf: chunk %d decoded to %d bytes, toc says %d", i, len(data), rec.RawSize)
	}
	return data, nil
}

// Find returns the index of the chunk with the given tuple, or -1.
func (r *Reader) Find(name string, iteration int64, source int) int {
	for i, m := range r.metas {
		if m.Name == name && m.Iteration == iteration && m.Source == source {
			return i
		}
	}
	return -1
}

// Verify reads every chunk, checking checksums and decodability.
func (r *Reader) Verify() error {
	for i := range r.metas {
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
