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
// and readers are recycled with Reset. This is the §IV-D story at the
// allocator level: the dedicated core's spare-time transformations must not
// fight the garbage collector for the memory bandwidth the simulation needs.

// Encoder is the reusable state of one encoding goroutine: a gzip writer per
// compression level it has used and the shuffle scratch space. A goroutine
// that encodes for as long as it lives (a dsf.EncodePool worker) owns one, so
// what it allocates is settled after its first chunk and depends on neither
// the garbage collector nor the scheduler. The zero value is ready to use;
// an Encoder must not be used by two goroutines at once.
//
// A nil *Encoder borrows one from a process-wide sync.Pool for the call: the
// right thing for occasional callers, but a pool item parked in one P's
// private slot is invisible to a goroutine that has since moved to another
// P, so a pool miss — most of a megabyte — can strike at any time.
type Encoder struct {
	writers  [numLevels]*gzip.Writer // indexed by level-gzip.HuffmanOnly
	fed      [numLevels]int64        // bytes each writer was given; tests bound the discarded share
	sw       sliceWriter             // the writers' sink
	shuffled []byte
	grams    [1 << 14]uint32 // repeats4's table
}

const numLevels = gzip.BestCompression - gzip.HuffmanOnly + 1

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

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

// CompressGzipTo is CompressGzip encoding into dst's backing array: dst is
// truncated, not appended to, and grown as needed. It returns the encoded
// bytes, which alias dst when its capacity sufficed. The level range is the
// full compress/gzip range, gzip.HuffmanOnly (-2) through 9.
func CompressGzipTo(dst, b []byte, level int) ([]byte, error) {
	return (*Encoder)(nil).CompressGzipTo(dst, b, level)
}

// CompressGzipTo is the package function of that name run on e's writers.
func (e *Encoder) CompressGzipTo(dst, b []byte, level int) ([]byte, error) {
	if !ValidGzipLevel(level) {
		return nil, fmt.Errorf("transform: gzip: invalid compression level: %d", level)
	}
	if e == nil {
		e = encoderPool.Get().(*Encoder)
		defer encoderPool.Put(e)
	}
	return e.appendGzipMember(dst[:0], b, level)
}

// appendGzipMember appends b to dst as one complete gzip member, deflated at
// level (which the caller has validated) by e's writer for that level, and
// returns the extended slice. A gzip stream is a sequence of members and
// readers concatenate them, so members appended one after another decode as
// the concatenation of their inputs.
func (e *Encoder) appendGzipMember(dst, b []byte, level int) ([]byte, error) {
	out, _, err := e.appendMemberIf(dst, b, level, 0)
	return out, err
}

// appendMemberIf is appendGzipMember with the trial built in: with head > 0,
// b[:head] is deflated and flushed first, and the member is completed by the
// same writer only if that took head>>worthShift bytes off the head. If not,
// it reports false and returns dst, the abandoned bytes behind its length.
// The flush is an empty stored block (00 00 00 ff ff), which is plain
// deflate to every inflater; the matcher's window carries on across it.
func (e *Encoder) appendMemberIf(dst, b []byte, level, head int) ([]byte, bool, error) {
	w := e.writers[level-gzip.HuffmanOnly]
	if w == nil {
		var err error
		if w, err = gzip.NewWriterLevel(io.Discard, level); err != nil {
			return nil, false, fmt.Errorf("transform: gzip: %w", err)
		}
		e.writers[level-gzip.HuffmanOnly] = w
	}
	e.sw.b = dst
	w.Reset(&e.sw)
	var err error
	keep, fed := true, &e.fed[level-gzip.HuffmanOnly]
	if head > 0 {
		if _, err = w.Write(b[:head]); err == nil {
			err = w.Flush()
		}
		*fed += int64(head)
		keep = head-(len(e.sw.b)-len(dst)) >= head>>worthShift
	}
	if err == nil && keep {
		*fed += int64(len(b) - head)
		if _, err = w.Write(b[head:]); err == nil {
			err = w.Close()
		}
	}
	out := e.sw.b
	e.sw.b = nil // don't pin the caller's buffer inside the encoder
	if err != nil {
		return nil, false, fmt.Errorf("transform: gzip: %w", err)
	}
	if !keep {
		out = out[:len(dst)]
	}
	return out, keep, nil
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
	// Back to the pool on every path, corrupt input included, and without a
	// reference to b — a parked reader must not pin the caller's compressed
	// buffer (the Reset onto an empty source fails, which is fine; the next
	// Get resets it onto real input).
	defer func() {
		_ = pg.r.Reset(bytes.NewReader(nil))
		gzipReaderPool.Put(pg)
	}()
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
	return out, nil
}
