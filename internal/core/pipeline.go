package core

import (
	"sync"
	"sync/atomic"
	"time"

	"damaris/internal/aggregate"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// pipelineSpec names the stages one dedicated core's persistence path is
// built from — flush → [merge] → [spill] → persist → release → ack in order —
// resolved once by newServer from the knob table and Options.
// An optional stage that is off is nil.
type pipelineSpec struct {
	persister Persister
	// workers is the writer goroutine count, at least 1.
	workers int
	// depth is the queue's capacity, and the cap on iterations per persist
	// call.
	depth int
	// window is the client flow window planBuffer derived: how many
	// iterations a client may run ahead of the last acked one (at least 1).
	window int64

	// onDurable is invoked in submission (ack) order for every iteration,
	// after the iteration and all earlier ones are durable; err is the
	// iteration's persist error, if any.
	onDurable func(it int64, err error)
	// recycle takes an iteration's entries back once it is acked — the last
	// time the pipeline touches them (metadata.Store.Recycle: the catalog
	// reuses the slice and the entries it owns).
	recycle func(entries []*metadata.Entry)

	// merge, with the aggregation layer on, contributes the iteration to the
	// node's merge from the event loop, before it is queued and without
	// blocking — so this member's epochs reach the aggregator in ascending
	// order (the property the leader's in-order emission, and so this
	// member's in-order acks and flow window, are built on). The writer then
	// only waits for the merged object's durability ack before releasing chunks.
	merge func(it int64, entries []*metadata.Entry)
	// scratch is the degraded-mode overflow. The pipeline owns it: close
	// gives its drainer a last attempt at the backlog.
	scratch *scratch

	// tracer records the queue/spill/persist/ack legs of every iteration's
	// lifecycle (nil = tracing off); server labels the spans with this
	// dedicated core's world rank.
	tracer *obs.Tracer
	server int
}

// pipeline is the dedicated core's persistence path, the single owner of
// "completed iteration → durable → released → acked in order": a bounded
// queue of completed iterations feeding N writer goroutines. The event loop
// hands a finished iteration's entries over through submit and immediately
// resumes draining client events; writers make the data durable, release the
// shared-memory chunks, and advance the ack watermark — so clients re-couple
// to I/O latency only when the queue is full (backpressure) or they outrun
// the flow window.
//
// Durability ordering: writers may complete iterations out of submission
// order, but the watermark and the per-iteration completion callback
// advance like a TCP ack — strictly in submission order, once every earlier
// submitted iteration is durable too. Shared-memory chunks, by contrast,
// are released as soon as their own iteration's write returns, since the
// space is reusable regardless of sibling iterations.
//
// The watermark is also the clients' flow window (wait): a client may run
// at most `window` iterations ahead of the last acked one. Without this
// bound a fast client could fill the shared buffer with unflushed
// iterations of its own while a slow sibling never gets the space to finish
// the oldest, which then never flushes; with it, window+1 write phases of
// the group are the most the segment ever holds (planBuffer). The window is
// sized once, at deployment, and never changes.
type pipeline struct {
	pipelineSpec
	jobs  chan persistJob
	wg    sync.WaitGroup
	start time.Time
	// stopped freezes the utilization wall clock once close() drains — a
	// quiesced pipeline's snapshot must stop changing (the Deploy-level
	// brownout test scrapes it twice and compares bytes). Guarded by mu;
	// zero while running.
	stopped time.Time

	// pressure counts consecutive submits that found the queue full. Only
	// the event loop (the sole submitter) touches it, so it needs no lock.
	pressure int

	mu        sync.Mutex
	cond      *sync.Cond // on mu: clients wait at the window; acks and close wake them
	closed    bool
	ws        stats.WorkerSet // per-writer busy seconds
	nextSeq   int64
	ackSeq    int64                 // all seqs < ackSeq have been acked
	acked     int64                 // the last acked iteration; -1 before any
	done      map[int64]persistDone // completed seqs awaiting contiguous ack
	maxDepth  int
	depths    *obs.Histogram // queue depth sampled at submit/complete
	lat       obs.Histogram  // submit→durable seconds, per iteration
	batches   *obs.Histogram // iterations per persist call
	writes    obs.Histogram  // each acked iteration's share of its persist call, seconds
	bytes     int64          // payload bytes of the acked iterations that persisted
	completed int64
	failures  int64

	// flowWaits and bufferWaits count the clients' EndIteration calls that
	// waited at the window and their reservations that waited for space in
	// the shared buffer, as they happen.
	flowWaits, bufferWaits atomic.Int64
}

// persistJob is one completed iteration travelling from the event loop to a
// writer.
type persistJob struct {
	seq       int64
	it        int64
	entries   []*metadata.Entry
	bytes     int64
	submitted time.Time
}

// persistDone is a finished job, its entries released, waiting for every
// earlier seq to finish so the ack watermark can pass it.
type persistDone struct {
	persistJob
	persistDur float64
	err        error
}

// newPipeline starts the spec's writer goroutines over a queue of depth
// `depth` (config.Validate holds both to at least 1). Batching is capped at
// the queue depth: a writer wakes, takes one job, then greedily drains
// whatever else is already queued so one durable persister call can cover
// several iterations (amortizing per-call costs — file creation, fsync —
// exactly where a slow persister hurts most).
func newPipeline(spec pipelineSpec) *pipeline {
	p := &pipeline{
		pipelineSpec: spec,
		jobs:         make(chan persistJob, spec.depth),
		start:        time.Now(),
		acked:        -1,
		done:         make(map[int64]persistDone),
		ws:           stats.NewWorkerSet(spec.workers),
		depths:       obs.NewHistogram(obs.CountBuckets()),
		batches:      obs.NewHistogram(obs.CountBuckets()),
	}
	p.cond = sync.NewCond(&p.mu)
	for slot := 0; slot < spec.workers; slot++ {
		p.wg.Add(1)
		go p.writer(slot)
	}
	return p
}

// submit takes one completed iteration through the stages: merge, then the
// queue. It is called by one event loop at a time, in ascending iteration
// order, and must not be called after close.
func (p *pipeline) submit(it int64, entries []*metadata.Entry) {
	if p.merge != nil {
		p.merge(it, entries)
	}
	var bytes int64
	for _, e := range entries {
		bytes += e.Size()
	}
	p.mu.Lock()
	seq := p.nextSeq
	p.nextSeq++
	inFlight := int(p.nextSeq - p.completed)
	p.maxDepth = max(p.maxDepth, inFlight)
	p.depths.Observe(float64(inFlight))
	p.mu.Unlock()
	p.enqueue(persistJob{seq: seq, it: it, entries: entries, bytes: bytes, submitted: time.Now()})
}

// enqueue hands a job to the writers. It blocks while the queue is full —
// the backpressure point for the event loop.
//
// With a scratch attached, sustained backpressure changes the story: once
// the queue has been full for `scratch.after` consecutive submits, the
// event loop pulls the oldest queued iteration, commits it to the local
// scratch store (fsynced — locally durable, so its chunks are released and
// its ack fires through the normal in-order watermark), and enqueues the
// new iteration in the freed slot. Clients therefore keep streaming at
// local-disk speed while the backend is browned out, instead of freezing
// behind the durability watermark.
func (p *pipeline) enqueue(job persistJob) {
	if p.scratch == nil {
		p.jobs <- job
		return
	}
	select {
	case p.jobs <- job:
		p.pressure = 0
		return
	default:
	}
	p.pressure++
	if p.pressure < p.scratch.after {
		p.jobs <- job // backpressure below threshold: block as usual
		return
	}
	for {
		// Spill the oldest queued iteration — the lowest unacked seq among
		// the queued, so acking it advances the watermark soonest. If a
		// writer drained the queue in the meantime, the retry send just
		// succeeds (the event loop is the only submitter).
		if old, ok := tryRecv(p.jobs); ok {
			p.spillJob(old)
		}
		select {
		case p.jobs <- job:
			return
		default:
		}
	}
}

// spillJob diverts one iteration to the scratch store and completes it —
// chunks released, ack through the watermark. A spill error (local disk
// failure) surfaces as the iteration's persist error — there is nowhere
// left to put the data.
func (p *pipeline) spillJob(j persistJob) {
	start := time.Now()
	err := p.scratch.spill(j.it, j.entries)
	wall := time.Since(start)
	p.tracer.Record(obs.StageSpill, p.server, j.it, start, wall, j.bytes, err != nil)
	p.complete([]persistJob{j}, wall.Seconds(), []error{err})
}

// complete is where every iteration ends, whether a writer or the spill path
// carried it: its iterations are durable (or definitively failed), so only
// now are their shared-memory chunks released — on error the data is gone
// either way, so liveness wins, release regardless. Each is charged perIt seconds of persisting and recorded for
// the in-order ack watermark. An iteration the watermark passes is counted,
// wakes the clients waiting at the window, is acked (onDurable) and its
// entries go back to the catalog (recycle).
func (p *pipeline) complete(batch []persistJob, perIt float64, errs []error) {
	now := time.Now()
	for i, j := range batch {
		for _, e := range j.entries {
			_ = e.Release() // taken entries are released here only, once
		}
		p.tracer.Record(obs.StageAck, p.server, j.it, j.submitted, now.Sub(j.submitted), j.bytes, errs[i] != nil)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, j := range batch {
		p.completed++
		p.depths.Observe(float64(p.nextSeq - p.completed))
		p.lat.Observe(now.Sub(j.submitted).Seconds())
		if errs[i] != nil {
			p.failures++
		}
		p.done[j.seq] = persistDone{j, perIt, errs[i]}
	}
	// Advance the ack watermark over every contiguous completed seq. Acks
	// are delivered under mu, so a writer that completes a later batch waits
	// until these earlier ones are, and onDurable and recycle must not call
	// into the pipeline or take a lock held by anyone who then does.
	for d, ok := p.done[p.ackSeq]; ok; d, ok = p.done[p.ackSeq] {
		delete(p.done, p.ackSeq)
		p.ackSeq++
		p.acked = max(p.acked, d.it) // a leftover flushed by Run may be older
		p.writes.Observe(d.persistDur)
		if d.err == nil {
			p.bytes += d.bytes
		}
		p.onDurable(d.it, d.err)
		if p.recycle != nil {
			p.recycle(d.entries)
		}
	}
	// On persist error the data is gone either way: liveness wins.
	p.cond.Broadcast()
}

// wait blocks a client that just ended iteration it until that leaves it at
// most window iterations ahead of the last acked one, or close released it,
// and reports whether it had to wait.
func (p *pipeline) wait(it int64) (waited bool) {
	p.mu.Lock()
	for p.acked < it-p.window && !p.closed {
		if !waited {
			waited = true
			p.flowWaits.Add(1)
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	return waited
}

// close stops accepting work and releases the clients waiting at the
// window, waits for the writers to drain every queued iteration, then gives
// the scratch drainer one final attempt at any spill backlog; an iteration
// it cannot replay stays in the scratch store (recovered on the next start)
// and is the error returned. Idempotent is the caller's job (Server.Close
// uses a sync.Once).
func (p *pipeline) close() error {
	p.mu.Lock()
	closed := p.closed
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	if !closed {
		close(p.jobs)
	}
	p.wg.Wait()
	if !closed {
		p.mu.Lock()
		p.stopped = time.Now()
		p.mu.Unlock()
	}
	if p.scratch != nil {
		return p.scratch.close()
	}
	return nil
}

// writer is one persist goroutine: pop a job, drain a batch, make it
// durable, release the chunks, ack — until close has closed the queue and it
// is drained.
func (p *pipeline) writer(id int) {
	defer p.wg.Done()
	batch := make([]persistJob, 0, p.depth)
	for job := range p.jobs {
		batch = append(batch[:0], job)
		for len(batch) < p.depth {
			extra, ok := tryRecv(p.jobs)
			if !ok {
				break
			}
			batch = append(batch, extra)
		}
		p.persistAndAck(id, batch)
	}
}

// tryRecv is a non-blocking receive.
func tryRecv(ch chan persistJob) (persistJob, bool) {
	select {
	case j, ok := <-ch:
		return j, ok
	default:
		return persistJob{}, false
	}
}

// persistAndAck writes one batch durably and completes it, charging the time
// to writer slot.
func (p *pipeline) persistAndAck(slot int, batch []persistJob) {
	start := time.Now()
	errs := make([]error, len(batch))
	if bp, ok := p.persister.(BatchPersister); ok && len(batch) > 1 {
		ib := make([]IterationBatch, len(batch))
		for i, j := range batch {
			ib[i] = IterationBatch{Iteration: j.it, Entries: j.entries}
		}
		// One durable call covers the whole batch; an error taints every
		// iteration in it.
		if err := bp.PersistBatch(ib); err != nil {
			for i := range errs {
				errs[i] = err
			}
		}
	} else {
		for i, j := range batch {
			errs[i] = p.persister.Persist(j.it, j.entries)
		}
	}
	callDur := time.Since(start)
	dur := callDur.Seconds()

	// Lifecycle spans, one triple per iteration: queue wait (submit to
	// writer pickup), persist (each iteration carries the whole batch's
	// call span — its durability really did take that long) and, in
	// complete, the full submit-to-durable ack latency the flow window
	// waits on.
	for i, j := range batch {
		p.tracer.Record(obs.StageQueue, p.server, j.it, j.submitted, start.Sub(j.submitted), j.bytes, false)
		p.tracer.Record(obs.StagePersist, p.server, j.it, start, callDur, j.bytes, errs[i] != nil)
	}
	p.mu.Lock()
	p.ws.AddBusy(slot, dur)
	p.batches.Observe(float64(len(batch)))
	p.mu.Unlock()
	// Each iteration is charged its share of the batch's persist call, so
	// Σ WriteTimes stays the real time spent persisting rather than being
	// inflated by the batch factor.
	p.complete(batch, dur/float64(len(batch)), errs)
}

// PipelineStats is a snapshot of the persistence pipeline's per-stage
// metrics, exported through Server.PipelineStats and put on the registry by
// Emit.
type PipelineStats struct {
	// Workers is the writer goroutine count.
	Workers int
	// QueueDepth is the configured bound on queued iterations.
	QueueDepth int
	// Window is the client flow window — how many iterations a client may
	// run ahead of the pipeline's last acked one: QueueDepth, and with a
	// scratch store attached what the shared buffer holds (its size over one
	// write phase of the server's clients, minus one, never below
	// QueueDepth), so that a full queue overflows into the spill instead of
	// stopping the clients.
	Window int
	// Enqueued and Completed count iterations through the pipeline.
	Enqueued, Completed int64
	// Failures counts iterations whose persist returned an error.
	Failures int64
	// MaxInFlight is the high-water mark of queued+writing iterations.
	MaxInFlight int
	// Depth summarizes the in-flight count sampled at every submit and
	// completion (the "queue depth" gauge).
	Depth stats.Summary
	// FlushLatency summarizes seconds from iteration submission to
	// durability.
	FlushLatency stats.Summary
	// BatchSize summarizes iterations per persister call.
	BatchSize stats.Summary
	// Utilization is Σbusy/(workers×wall) over the pipeline's lifetime.
	Utilization float64
	// Encode snapshots the shared chunk-encode pool (zero when
	// encode_workers is 0 or the persister does not support pooled
	// encoding). Filled by Server.PipelineStats, not by the pipeline itself.
	Encode dsf.EncodeStats
	// Store snapshots the storage backend the persister writes through
	// (zero when the persister exposes none). Filled by
	// Server.PipelineStats, not by the pipeline itself.
	Store store.Stats
	// Spill snapshots the degraded-mode scratch-spill path (zero when no
	// scratch store is configured).
	Spill SpillStats
	// Aggregate snapshots the node-level aggregation tier. Only the node's
	// leader server reports it (siblings report zero), so summing across
	// servers counts each node exactly once. Filled by Server.PipelineStats.
	Aggregate aggregate.Stats
	// Shards snapshots the dedicated core's event-loop shards (one entry per
	// shard loop; a single classic loop reports one). Filled by
	// Server.PipelineStats.
	Shards []ShardStat
}

// snapshot captures the pipeline metrics at a point in time.
func (p *pipeline) snapshot() PipelineStats {
	var spill SpillStats
	if p.scratch != nil {
		spill = p.scratch.stats()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	end := time.Now()
	if !p.stopped.IsZero() {
		end = p.stopped
	}
	wall := end.Sub(p.start).Seconds()
	return PipelineStats{
		Spill:        spill,
		Workers:      p.ws.Workers(),
		QueueDepth:   p.depth,
		Window:       int(p.window),
		Enqueued:     p.nextSeq,
		Completed:    p.completed,
		Failures:     p.failures,
		MaxInFlight:  p.maxDepth,
		Depth:        p.depths.Summary(),
		FlushLatency: p.lat.Summary(),
		BatchSize:    p.batches.Summary(),
		Utilization:  p.ws.Utilization(wall),
	}
}
