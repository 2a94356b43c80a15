package transform

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// The encode hot path runs once per chunk per iteration; a fresh gzip.Writer
// costs hundreds of kilobytes of deflate state per construction, so writers
// (one pool per compression level) and readers are recycled with Reset. This
// is the §IV-D story at the allocator level: the dedicated core's spare-time
// transformations must not fight the garbage collector for the memory
// bandwidth the simulation needs.

// gzipWriterPools[level-gzip.HuffmanOnly] pools writers for that level.
var gzipWriterPools [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

var gzipReaderPool sync.Pool

// ValidGzipLevel reports whether level is a compress/gzip level:
// gzip.HuffmanOnly (-2) through gzip.BestCompression (9).
func ValidGzipLevel(level int) bool {
	return level >= gzip.HuffmanOnly && level <= gzip.BestCompression
}

// sliceWriter is an allocation-light bytes.Buffer stand-in writing into a
// caller-provided backing array.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// pooledGzip couples a writer with its output sink so a steady-state
// appendGzipMember call allocates nothing.
type pooledGzip struct {
	w  *gzip.Writer
	sw sliceWriter
}

// CompressGzipTo is CompressGzip encoding into dst's backing array: dst is
// truncated, not appended to, and grown as needed. It returns the encoded
// bytes, which alias dst when its capacity sufficed. The level range is the
// full compress/gzip range, gzip.HuffmanOnly (-2) through 9.
func CompressGzipTo(dst, b []byte, level int) ([]byte, error) {
	if !ValidGzipLevel(level) {
		return nil, fmt.Errorf("transform: gzip: invalid compression level: %d", level)
	}
	return appendGzipMember(dst[:0], b, level)
}

// appendGzipMember appends b to dst as one complete gzip member, deflated at
// level (which the caller has validated) by a pooled gzip.Writer, and returns
// the extended slice. A gzip stream is a sequence of members and readers
// concatenate them, so members appended one after another decode as the
// concatenation of their inputs.
func appendGzipMember(dst, b []byte, level int) ([]byte, error) {
	pool := &gzipWriterPools[level-gzip.HuffmanOnly]
	pg, _ := pool.Get().(*pooledGzip)
	if pg == nil {
		pg = &pooledGzip{}
		w, err := gzip.NewWriterLevel(io.Discard, level)
		if err != nil {
			return nil, fmt.Errorf("transform: gzip: %w", err)
		}
		pg.w = w
	}
	pg.sw.b = dst
	pg.w.Reset(&pg.sw)
	if _, err := pg.w.Write(b); err != nil {
		return nil, fmt.Errorf("transform: gzip write: %w", err)
	}
	if err := pg.w.Close(); err != nil {
		return nil, fmt.Errorf("transform: gzip close: %w", err)
	}
	out := pg.sw.b
	pg.sw.b = nil // don't pin the caller's buffer inside the pool
	pool.Put(pg)
	return out, nil
}

// pooledGunzip couples a reader with the one-byte buffer it probes for the
// end of the stream with (a local array would escape through Read).
type pooledGunzip struct {
	r     gzip.Reader
	probe [1]byte
}

// DecompressGzipTo is DecompressGzip decoding into dst's backing array. Pass
// a dst with the decoded size as capacity (e.g. from a stored RawSize) and
// the decode performs exactly one read pass with no growth reallocations;
// with a nil dst it behaves like io.ReadAll. It returns the decoded bytes,
// aliasing dst when its capacity sufficed. A stream of several gzip members
// decodes to the concatenation of their contents.
func DecompressGzipTo(dst, b []byte) ([]byte, error) {
	pg, _ := gzipReaderPool.Get().(*pooledGunzip)
	if pg == nil {
		pg = new(pooledGunzip)
	}
	if err := pg.r.Reset(bytes.NewReader(b)); err != nil {
		return nil, fmt.Errorf("transform: gunzip: %w", err)
	}
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]byte, 0, 512)
	}
	for {
		// A full buffer is where an exact capacity hint ends, but the stream's
		// end can take one more Read to show: flate hands out a full 32 KiB
		// window before it looks at the final block. So a full buffer is
		// probed with one byte, and grows (append's amortized doubling) only
		// if more data does arrive.
		buf := out[len(out):cap(out)]
		if len(buf) == 0 {
			buf = pg.probe[:]
		}
		n, err := pg.r.Read(buf)
		if len(out) == cap(out) {
			out = append(out, buf[:n]...)
		} else {
			out = out[:len(out)+n]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("transform: gunzip read: %w", err)
		}
	}
	if err := pg.r.Close(); err != nil {
		return nil, fmt.Errorf("transform: gunzip close: %w", err)
	}
	// Drop the reference to b before pooling — a parked reader must not pin
	// the caller's compressed buffer (the Reset onto an empty source fails,
	// which is fine; the next Get resets it onto real input).
	_ = pg.r.Reset(bytes.NewReader(nil))
	gzipReaderPool.Put(pg)
	return out, nil
}
