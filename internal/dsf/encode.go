package dsf

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"time"

	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/transform"
)

// This file is the encode/write split of the persistence hot path (paper
// §IV-D, "potential use of spare time"): chunk transformation — shuffle,
// deflate, checksum — is CPU work that parallelizes perfectly across the
// node's spare cores, while the byte stream into one file must stay
// sequential. An EncodePool runs the former on N workers; Writer.WriteChunks
// streams completed chunks in submission order, so the file bytes never
// depend on worker count or scheduling.

// scratchBuf is a reusable byte buffer for encode output.
type scratchBuf struct{ b []byte }

// scratchPool recycles the serial path's output buffers. An EncodePool keeps
// its own (EncodePool.bufs).
var scratchPool = sync.Pool{New: func() any { return new(scratchBuf) }}

// poolBufs is the capacity of an EncodePool's free list of output buffers:
// more than any deployment keeps in flight (2 × encode workers per persist
// writer). Buffers exist only once they were needed, so a generous capacity
// costs nothing.
const poolBufs = 64

// encodedChunk is one chunk's storage encoding. For codec None, stored
// aliases the caller's data (zero-copy) and buf is nil; otherwise stored
// aliases buf's recycled backing array, handed back by release.
// planes is what the ShuffleGzip encoder decided per byte plane (zero for the
// other codecs).
type encodedChunk struct {
	stored []byte
	buf    *scratchBuf
	crc    uint32
	planes transform.PlaneCounts
}

// release hands the chunk's buffer, if any, back to the pool it was encoded
// for (nil: the serial path). The stored slice must not be used afterwards.
func (ec *encodedChunk) release(p *EncodePool) {
	if ec.buf != nil {
		ec.buf.b = ec.stored[:0]
		p.putBuf(ec.buf)
		ec.buf = nil
	}
}

// getBuf returns an output buffer for one chunk. A pool's buffers are taken
// by the worker that encodes a chunk and handed back by the goroutine that
// streamed it out, usually on another P — where a sync.Pool would strand them
// in private slots and miss at random; hence a free list of the pool's own,
// which holds exactly as many buffers as were ever in flight at once. A nil
// pool (serial encode) uses the process-wide sync.Pool.
func (p *EncodePool) getBuf() *scratchBuf {
	if p == nil {
		return scratchPool.Get().(*scratchBuf)
	}
	select {
	case b := <-p.bufs:
		return b
	default:
		return new(scratchBuf)
	}
}

// putBuf hands an output buffer back; a race build poisons it first, so a
// chunk still read through it after its release fails its CRC.
func (p *EncodePool) putBuf(b *scratchBuf) {
	poison(b.b[:cap(b.b)])
	if p == nil {
		scratchPool.Put(b)
		return
	}
	select {
	case p.bufs <- b:
	default: // more in flight than the list holds: let it go
	}
}

// encodeChunk encodes data for storage with recycled state, so a steady-state
// encode performs no large allocations: enc's gzip compressors and shuffle
// scratch space, p's output buffers. A worker of p passes its own enc; the
// serial path passes nil for both and borrows process-wide pooled ones for
// the call.
func encodeChunk(enc *transform.Encoder, p *EncodePool, data []byte, c Codec, elemSize, level int) (encodedChunk, error) {
	if c == None {
		return encodedChunk{stored: data, crc: crc32.ChecksumIEEE(data)}, nil
	}
	out := p.getBuf()
	var (
		stored []byte
		planes transform.PlaneCounts
		err    error
	)
	switch c {
	case Gzip:
		stored, err = enc.CompressGzipTo(out.b, data, level)
	case ShuffleGzip:
		stored, planes, err = enc.ShuffleGzipTo(out.b, data, elemSize, level)
	default:
		err = fmt.Errorf("unknown codec %v", c)
	}
	if err != nil {
		p.putBuf(out)
		return encodedChunk{}, err
	}
	return encodedChunk{stored: stored, buf: out, crc: crc32.ChecksumIEEE(stored), planes: planes}, nil
}

// encodeJob is one chunk travelling to an encode worker.
type encodeJob struct {
	data     []byte
	codec    Codec
	elemSize int
	level    int
	iter     int64 // chunk's iteration, carried for lifecycle tracing
	result   chan<- encodeResult
}

type encodeResult struct {
	ec  encodedChunk
	err error
}

// EncodePool is a shared pool of chunk-encode workers. One pool serves a
// whole dedicated core (all its persist writers submit to it), sized by the
// encode_workers config knob. Methods are safe for concurrent use; all of
// them tolerate a nil receiver, which behaves as "no pool" (serial encode).
type EncodePool struct {
	jobs  chan encodeJob
	bufs  chan *scratchBuf // free output buffers, see getBuf
	wg    sync.WaitGroup
	start time.Time
	// stopped freezes the utilization wall clock once Close drains, so a
	// quiesced pool's Stats (and its registry exposition) stop changing.
	// Guarded by mu; zero while running.
	stopped time.Time

	// tracer, when set, receives one StageEncode span per chunk; trServer
	// labels them with the owning dedicated core's world rank. Written
	// before the first WriteChunks (SetTracer), read by workers.
	tracer   *obs.Tracer
	trServer int

	mu          sync.Mutex
	ws          stats.WorkerSet // per-worker busy seconds
	chunks      int64
	rawBytes    int64
	storedBytes int64
	planes      transform.PlaneCounts
	failures    int64
	lat         obs.Histogram
	inFlight    int64
	maxInFlight int64
}

// NewEncodePool starts workers encode goroutines. workers <= 0 returns nil,
// the serial no-pool mode every consumer accepts.
func NewEncodePool(workers int) *EncodePool {
	if workers <= 0 {
		return nil
	}
	p := &EncodePool{
		// One queued chunk per worker keeps each fed while it hands its
		// result over; WriteChunks bounds what a caller has outstanding.
		jobs:  make(chan encodeJob, workers),
		bufs:  make(chan *scratchBuf, poolBufs),
		start: time.Now(),
		ws:    stats.NewWorkerSet(workers),
	}
	for slot := 0; slot < workers; slot++ {
		p.wg.Add(1)
		go p.worker(slot)
	}
	return p
}

// SetTracer attaches a lifecycle tracer: every chunk encoded by the pool
// records one StageEncode span labelled with the owning dedicated core's
// world rank. A nil tracer (or receiver) disables tracing. Safe to call
// while workers run; spans already in flight keep the previous tracer.
func (p *EncodePool) SetTracer(tr *obs.Tracer, server int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.tracer = tr
	p.trServer = server
	p.mu.Unlock()
}

// Workers returns the pool size, fixed at construction (0 for a nil pool).
func (p *EncodePool) Workers() int {
	if p == nil {
		return 0
	}
	return p.ws.Workers()
}

// Close stops the workers after draining submitted jobs. No WriteChunks
// call may be in flight or submitted afterwards.
func (p *EncodePool) Close() {
	if p == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
	p.mu.Lock()
	p.stopped = time.Now()
	p.mu.Unlock()
}

func (p *EncodePool) worker(id int) {
	defer p.wg.Done()
	// The worker's own deflate state, allocated on its first chunk and gone
	// with the worker: a process-wide sync.Pool would miss whenever the
	// scheduler moved the worker to another P.
	var enc transform.Encoder
	for job := range p.jobs {
		start := time.Now()
		ec, err := encodeChunk(&enc, p, job.data, job.codec, job.elemSize, job.level)
		wall := time.Since(start)
		dur := wall.Seconds()
		p.mu.Lock()
		p.ws.AddBusy(id, dur)
		p.lat.Observe(dur)
		p.chunks++
		p.rawBytes += int64(len(job.data))
		if err != nil {
			p.failures++
		} else {
			p.storedBytes += int64(len(ec.stored))
			p.planes.Add(ec.planes)
		}
		tr, srv := p.tracer, p.trServer
		p.mu.Unlock()
		tr.Record(obs.StageEncode, srv, job.iter, start, wall, int64(len(job.data)), err != nil)
		job.result <- encodeResult{ec: ec, err: err}
	}
}

// submit queues one chunk, tracking the raw bytes in flight between
// submission and drain.
func (p *EncodePool) submit(job encodeJob, raw int64) {
	p.mu.Lock()
	p.inFlight += raw
	if p.inFlight > p.maxInFlight {
		p.maxInFlight = p.inFlight
	}
	p.mu.Unlock()
	p.jobs <- job
}

// drained marks raw bytes as consumed by the streaming side.
func (p *EncodePool) drained(raw int64) {
	p.mu.Lock()
	p.inFlight -= raw
	p.mu.Unlock()
}

// EncodeStats is a snapshot of the encode stage's metrics, exported next to
// the write-behind pipeline's PipelineStats.
type EncodeStats struct {
	// Workers is the pool size (0 = serial in-line encoding).
	Workers int
	// Chunks counts chunks encoded by the pool; Failures those that errored.
	Chunks, Failures int64
	// RawBytes and StoredBytes measure the pool's input and output volume.
	RawBytes, StoredBytes int64
	// Planes counts the byte planes of ShuffleGzip chunks by what the encoder
	// decided for them (transform.PlaneStored, PlaneFast, PlaneLevel): the
	// first place to look when the ratio or the encode time moves.
	Planes transform.PlaneCounts
	// Latency summarizes per-chunk encode seconds.
	Latency stats.Summary
	// Utilization is Σbusy/(workers×wall) since the pool started.
	Utilization float64
	// MaxBytesInFlight is the high-water mark of raw bytes submitted to the
	// pool but not yet streamed out.
	MaxBytesInFlight int64
}

// Stats snapshots the pool's metrics (zero value for a nil pool).
func (p *EncodePool) Stats() EncodeStats {
	if p == nil {
		return EncodeStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	end := time.Now()
	if !p.stopped.IsZero() {
		end = p.stopped
	}
	wall := end.Sub(p.start).Seconds()
	return EncodeStats{
		Workers:          p.ws.Workers(),
		Chunks:           p.chunks,
		Failures:         p.failures,
		RawBytes:         p.rawBytes,
		StoredBytes:      p.storedBytes,
		Planes:           p.planes,
		Latency:          p.lat.Summary(),
		Utilization:      p.ws.Utilization(wall),
		MaxBytesInFlight: p.maxInFlight,
	}
}

// Emit writes the snapshot into a registry gather under the damaris_encode_*
// families — the live-scrape twin of the end-of-run encode report.
func (s EncodeStats) Emit(e *obs.Emitter, labels ...string) {
	e.Gauge("damaris_encode_workers", float64(s.Workers), labels...)
	e.Counter("damaris_encode_chunks_total", float64(s.Chunks), labels...)
	e.Counter("damaris_encode_failures_total", float64(s.Failures), labels...)
	e.Counter("damaris_encode_raw_bytes_total", float64(s.RawBytes), labels...)
	e.Counter("damaris_encode_stored_bytes_total", float64(s.StoredBytes), labels...)
	for m, n := range s.Planes {
		e.Counter("damaris_encode_planes_total", float64(n),
			append([]string{"mode", transform.PlaneMode(m).String()}, labels...)...)
	}
	e.Gauge("damaris_encode_utilization", s.Utilization, labels...)
	e.Gauge("damaris_encode_bytes_in_flight_max", float64(s.MaxBytesInFlight), labels...)
	e.Summary("damaris_encode_seconds", s.Latency, labels...)
}

// WriteChunks encodes and appends a batch of chunks. With a non-nil pool the
// encodes run on the pool's workers in parallel while this goroutine streams
// completed chunks to the file in argument order — the output is
// byte-identical to a serial WriteChunk loop regardless of worker count.
// With a nil pool it is that serial loop. Outstanding encoded chunks are
// bounded to 2× the pool size, so arbitrarily large batches never hold the
// whole encoded batch in memory.
func (w *Writer) WriteChunks(metas []ChunkMeta, datas [][]byte, pool *EncodePool) error {
	if len(metas) != len(datas) {
		return fmt.Errorf("dsf: WriteChunks: %d metas for %d data buffers", len(metas), len(datas))
	}
	// Validate the whole batch before encoding anything: a malformed chunk
	// fails the call without a partial parallel encode to unwind.
	for i := range metas {
		if err := w.validateChunk(metas[i], datas[i]); err != nil {
			return err
		}
	}
	if len(metas) == 0 {
		return nil // nothing to write, and a closed Writer has no records to grow
	}
	// One reservation for the batch's TOC records instead of regrowing them
	// chunk by chunk; records reused from an earlier object need none.
	w.recs = slices.Grow(w.recs, len(metas))
	if pool == nil {
		for i := range metas {
			if err := w.WriteChunk(metas[i], datas[i]); err != nil {
				return err
			}
		}
		return nil
	}

	window := 2 * pool.Workers()
	if window < 2 {
		window = 2
	}
	if window > len(metas) {
		window = len(metas)
	}
	// One result channel per window slot, not per chunk: chunk i+window is
	// submitted only after chunk i's result was received and its slot freed.
	results := make([]chan encodeResult, window)
	for i := range results {
		results[i] = make(chan encodeResult, 1)
	}
	// The window semaphore bounds chunks that are encoding or encoded but
	// not yet streamed; the submitter parks here when the streamer falls
	// behind.
	sem := make(chan struct{}, window)
	go func() {
		for i := range metas {
			sem <- struct{}{}
			pool.submit(encodeJob{
				data:     datas[i],
				codec:    metas[i].Codec,
				elemSize: metas[i].Layout.Type().Size(),
				level:    w.level,
				iter:     metas[i].Iteration,
				result:   results[i%window],
			}, int64(len(datas[i])))
		}
	}()

	// Stream strictly in submission order; after an error keep draining so
	// every in-flight buffer is recycled and the submitter terminates.
	var firstErr error
	for i := range metas {
		res := <-results[i%window]
		pool.drained(int64(len(datas[i])))
		switch {
		case res.err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("dsf: chunk %q: %w", metas[i].Name, res.err)
			}
		case firstErr == nil:
			firstErr = w.appendEncoded(metas[i], int64(len(datas[i])), res.ec)
		}
		// The window opens only once the chunk's buffer is back, so the pool
		// never has more than window buffers in flight for this call.
		res.ec.release(pool)
		<-sem
	}
	return firstErr
}
