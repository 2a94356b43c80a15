package main

import (
	"sync"
	"sync/atomic"
	"time"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/store"
)

// Span names. Layer = the package whose public function the span brackets.
const (
	spanWritePhase   = "write_phase"        // first Write .. EndIteration returned
	spanClientWrite  = "core.client_write"  // one Client.Write
	spanEndIteration = "core.end_iteration" // Client.EndIteration (flow-window wait included)
	spanPersist      = "core.persist"       // one Persist/PersistBatch/PersistAsWith call
	spanCreate       = "store.create"
	spanWrite        = "store.write"
	spanCommit       = "store.commit"
	spanReadChunk    = "gateway.read_chunk"
	spanGet          = "store.get"
	spanManifest     = "store.manifest"
	spanStatObject   = "store.stat_object"
	spanReadAt       = "store.read_at"
)

// readerRank labels spans of the reader goroutine, which is no MPI rank.
const readerRank = -1

// span is one timed call into a layer. Spans of one request share
// (Rank, Iter): a client's iteration, a server's persist call (Iter = its
// lowest iteration), or the reader's n-th read. Write-side store spans are
// recorded with the object name only; linkStoreSpans fills Rank, Iter and
// Parent once the object's TOC says which iterations it holds.
type span struct {
	Name   string
	Parent string
	Rank   int
	Iter   int64
	Object string
	Start  time.Duration // since the segment's epoch
	End    time.Duration
	Bytes  int64
}

// recorder keeps a segment's spans in memory. A nil recorder records
// nothing, which is the untraced run.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// curRead is the index of the read in flight: the gateway fetches on
	// the caller's behalf, so its backend calls belong to that read.
	curRead atomic.Int64
}

func newRecorder(epoch time.Time) *recorder {
	r := &recorder{epoch: epoch}
	r.curRead.Store(-1)
	return r
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since converts a wall-clock instant to the recorder's time base.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// readSide records one backend call made on behalf of the read in flight.
func (r *recorder) readSide(name, object string, start time.Time, bytes int64) {
	if r == nil {
		return
	}
	r.add(span{Name: name, Parent: spanReadChunk, Rank: readerRank, Iter: r.curRead.Load(),
		Object: object, Start: r.since(start), End: r.since(time.Now()), Bytes: bytes})
}

// backend wraps the store every segment writes through. Untraced, it only
// notes when each ObjectWriter.Commit returned (the durability instant the
// ack metrics need, which no public snapshot exposes); traced, it also
// records a span per call. Every other method is the inner backend's.
type backend struct {
	store.Backend
	stater   store.ObjectStater
	rec      *recorder
	onCommit func(object string, at time.Time)
}

// cachedBackend adds store.CachedOpener for inner backends that have it, so
// a type assertion on the wrapper answers as it would on the inner backend.
type cachedBackend struct {
	*backend
	opener store.CachedOpener
}

// wrapBackend returns inner behind the wrapper.
func wrapBackend(inner statingBackend, rec *recorder, onCommit func(string, time.Time)) store.Backend {
	b := &backend{Backend: inner, stater: inner, rec: rec, onCommit: onCommit}
	if co, ok := inner.(store.CachedOpener); ok {
		return &cachedBackend{backend: b, opener: co}
	}
	return b
}

func (b *backend) Create(object string) (store.ObjectWriter, error) {
	start := time.Now()
	ow, err := b.Backend.Create(object)
	if err != nil {
		return nil, err
	}
	if b.rec != nil {
		b.rec.add(span{Name: spanCreate, Object: object, Start: b.rec.since(start), End: b.rec.since(time.Now())})
	}
	return &objectWriter{ObjectWriter: ow, b: b, object: object}, nil
}

func (b *backend) Get(name string) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.Get(name)
	b.rec.readSide(spanGet, name, start, int64(len(data)))
	return data, err
}

func (b *backend) Manifest(object string) (*store.Manifest, error) {
	start := time.Now()
	m, err := b.Backend.Manifest(object)
	b.rec.readSide(spanManifest, object, start, 0)
	return m, err
}

// StatObject implements store.ObjectStater.
func (b *backend) StatObject(object string) (store.ObjectStat, error) {
	start := time.Now()
	st, err := b.stater.StatObject(object)
	b.rec.readSide(spanStatObject, object, start, 0)
	return st, err
}

func (b *backend) Open(object string) (store.ObjectReader, error) {
	or, err := b.Backend.Open(object)
	return b.wrapReader(object, or, err)
}

// OpenCached implements store.CachedOpener.
func (b *cachedBackend) OpenCached(object string, cache store.PartCache) (store.ObjectReader, error) {
	or, err := b.opener.OpenCached(object, cache)
	return b.wrapReader(object, or, err)
}

func (b *backend) wrapReader(object string, or store.ObjectReader, err error) (store.ObjectReader, error) {
	if err != nil || b.rec == nil {
		return or, err
	}
	return &objectReader{ObjectReader: or, b: b, object: object}, nil
}

type objectWriter struct {
	store.ObjectWriter
	b      *backend
	object string
}

func (w *objectWriter) Write(p []byte) (int, error) {
	if w.b.rec == nil {
		return w.ObjectWriter.Write(p)
	}
	start := time.Now()
	n, err := w.ObjectWriter.Write(p)
	w.b.rec.add(span{Name: spanWrite, Object: w.object, Start: w.b.rec.since(start),
		End: w.b.rec.since(time.Now()), Bytes: int64(n)})
	return n, err
}

func (w *objectWriter) Commit() (*store.Manifest, error) {
	start := time.Now()
	m, err := w.ObjectWriter.Commit()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if w.b.rec != nil {
		w.b.rec.add(span{Name: spanCommit, Object: w.object, Start: w.b.rec.since(start),
			End: w.b.rec.since(end), Bytes: m.Size})
	}
	w.b.onCommit(w.object, end)
	return m, nil
}

type objectReader struct {
	store.ObjectReader
	b      *backend
	object string
}

func (r *objectReader) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := r.ObjectReader.ReadAt(p, off)
	r.b.rec.add(span{Name: spanReadAt, Rank: readerRank, Iter: -1, Object: r.object,
		Start: r.b.rec.since(start), End: r.b.rec.since(time.Now()), Bytes: int64(n)})
	return n, err
}

// persister brackets every persist call of the traced run. It forwards all
// the optional interfaces the dedicated core probes a persister for, so the
// traced run takes the same code path as the untraced one.
type persister struct {
	inner *core.DSFPersister
	rec   *recorder
	rank  int
}

func (p *persister) record(start time.Time, lo int64, bytes int64) {
	p.rec.add(span{Name: spanPersist, Rank: p.rank, Iter: lo,
		Start: p.rec.since(start), End: p.rec.since(time.Now()), Bytes: bytes})
}

func entryBytes(entries []*metadata.Entry) (n int64) {
	for _, e := range entries {
		n += e.Size()
	}
	return n
}

func (p *persister) Persist(it int64, entries []*metadata.Entry) error {
	start, bytes := time.Now(), entryBytes(entries)
	err := p.inner.Persist(it, entries)
	p.record(start, it, bytes)
	return err
}

// PersistBatch implements core.BatchPersister.
func (p *persister) PersistBatch(batch []core.IterationBatch) error {
	start := time.Now()
	lo, bytes := batch[0].Iteration, int64(0)
	for _, b := range batch {
		if b.Iteration < lo {
			lo = b.Iteration
		}
		bytes += entryBytes(b.Entries)
	}
	err := p.inner.PersistBatch(batch)
	p.record(start, lo, bytes)
	return err
}

// PersistAsWith implements aggregate.EpochWriter.
func (p *persister) PersistAsWith(name string, entries []*metadata.Entry, attrs map[string]string) error {
	start, bytes := time.Now(), entryBytes(entries)
	lo := int64(-1)
	for _, e := range entries {
		if lo < 0 || e.Key.Iteration < lo {
			lo = e.Key.Iteration
		}
	}
	err := p.inner.PersistAsWith(name, entries, attrs)
	p.record(start, lo, bytes)
	return err
}

// StoreStats implements core.StoreStatser.
func (p *persister) StoreStats() store.Stats { return p.inner.StoreStats() }

// EncodePool is what Server.PipelineStats probes for encode-stage metrics.
func (p *persister) EncodePool() *dsf.EncodePool { return p.inner.EncodePool() }
