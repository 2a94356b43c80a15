package core

import (
	"sync"
	"time"

	"damaris/internal/aggregate"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// pipelineSpec names the stages one dedicated core's persistence path is
// built from — flush → [merge] → [spill] → [slot wait] → persist → release →
// ack in order — resolved once by newServer from the knob table and Options.
// An optional stage that is off is nil.
type pipelineSpec struct {
	persister Persister
	// workers is the writer goroutine count. 0 selects the inline executor:
	// submit persists the iteration on the event loop that called it and
	// returns once it is acked — the coupled baseline the paper's
	// dedicated-core design eliminates, kept for comparison runs.
	workers int
	// depth is the queue's capacity, and the cap on iterations per persist
	// call.
	depth int

	// onDurable is invoked in submission (ack) order for every iteration,
	// after the iteration and all earlier ones are durable. persistDur is
	// the iteration's share of its persist call (call duration / batch
	// size); err is the iteration's persist error, if any.
	onDurable func(it int64, persistDur, latency float64, bytes int64, err error)
	// recycle takes an iteration's entries back once it is acked — the last
	// time the pipeline touches them (metadata.Store.Recycle: the catalog
	// reuses the slice and the entries it owns).
	recycle func(entries []*metadata.Entry)

	// merge, with the aggregation layer on, contributes the iteration to the
	// node's merge from the event loop, before it is queued — so this
	// member's epochs enter the fan-in ring in ascending order (the property
	// the leader's in-order emission, and the cross-node lockstep in "node"
	// mode, is built on). The writer then only waits for the merged object's
	// durability ack before releasing chunks.
	merge func(it int64, entries []*metadata.Entry)
	// scratch is the degraded-mode overflow. The pipeline owns it: close
	// gives its drainer a last attempt at the backlog.
	scratch *scratch
	// scheduler delays each persist call to this server's transfer slot
	// (paper §IV-D).
	scheduler Scheduler

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
// shared-memory chunks, and advance the client flow-control window — so
// clients re-couple to I/O latency only when the queue is full
// (backpressure) or they outrun the flow window. With zero writers the same
// steps run inside submit, on a batch of one.
//
// Durability ordering: writers may complete iterations out of submission
// order, but the flow window and the per-iteration completion callback
// advance like a TCP ack — strictly in submission order, once every earlier
// submitted iteration is durable too. Shared-memory chunks, by contrast,
// are released as soon as their own iteration's write returns, since the
// space is reusable regardless of sibling iterations.
type pipeline struct {
	pipelineSpec
	maxBatch int
	jobs     chan persistJob
	wg       sync.WaitGroup
	start    time.Time
	// stopped freezes the utilization wall clock once close() drains — a
	// quiesced pipeline's snapshot must stop changing (the Deploy-level
	// brownout test scrapes it twice and compares bytes). Guarded by mu;
	// zero while running.
	stopped time.Time

	// ackMu serializes the ack-drain + onDurable section across writers,
	// so callbacks really are delivered in watermark order (p.mu alone
	// only orders the state updates, not the calls after unlock).
	ackMu sync.Mutex

	// pressure counts consecutive submits that found the queue full. Only
	// the event loop (the sole submitter) touches it, so it needs no lock.
	pressure int

	mu        sync.Mutex
	closed    bool
	ws        stats.WorkerSet // per-writer busy seconds
	nextSeq   int64
	ackSeq    int64                 // all seqs < ackSeq have been acked
	done      map[int64]persistDone // completed seqs awaiting contiguous ack
	inFlight  int                   // submitted, not yet durable
	maxDepth  int
	depthAcc  stats.Accumulator // queue depth sampled at submit/complete
	latAcc    stats.Accumulator // submit→durable seconds, per iteration
	batchAcc  stats.Accumulator // iterations per persist call
	enqueued  int64
	completed int64
	failures  int64
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

// persistDone is a finished job waiting for every earlier seq to finish so
// the ack watermark can pass it.
type persistDone struct {
	it         int64
	entries    []*metadata.Entry // released; handed to recycle with the ack
	persistDur float64
	latency    float64
	bytes      int64
	err        error
}

// newPipeline starts the spec's writer goroutines over a queue of depth
// `depth`. Batching is capped at the queue depth: a writer wakes, takes one
// job, then greedily drains whatever else is already queued so one durable
// persister call can cover several iterations (amortizing per-call costs —
// file creation, fsync — exactly where a slow persister hurts most). When a
// Scheduler is present that is not batch-aware, batching is disabled, since
// each iteration must then wait for its own transfer slot (paper §IV-D); a
// BatchScheduler keeps batching on and waits once per batch instead.
func newPipeline(spec pipelineSpec) *pipeline {
	if spec.depth < 1 {
		spec.depth = 1
	}
	maxBatch := spec.depth
	if spec.scheduler != nil {
		if _, ok := spec.scheduler.(BatchScheduler); !ok {
			maxBatch = 1
		}
	}
	p := &pipeline{
		pipelineSpec: spec,
		maxBatch:     maxBatch,
		jobs:         make(chan persistJob, spec.depth),
		start:        time.Now(),
		done:         make(map[int64]persistDone),
		ws:           stats.NewWorkerSet(spec.workers),
	}
	for slot := 0; slot < spec.workers; slot++ {
		p.wg.Add(1)
		go p.writer(slot)
	}
	return p
}

// submit takes one completed iteration through the stages: merge, then the
// queue (or, with no writers, the persist itself). It is called by one event
// loop at a time, in ascending iteration order, and must not be called after
// close.
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
	p.enqueued++
	p.inFlight++
	if p.inFlight > p.maxDepth {
		p.maxDepth = p.inFlight
	}
	p.depthAcc.Add(float64(p.inFlight))
	p.mu.Unlock()
	job := persistJob{seq: seq, it: it, entries: entries, bytes: bytes, submitted: time.Now()}
	if p.workers == 0 {
		// Inline executor: no writer slot is charged — the time is already
		// the calling loop's busy time.
		p.persistAndAck(-1, []persistJob{job})
	} else {
		p.enqueue(job)
	}
}

// enqueue hands a job to the writers. It blocks while the queue is full —
// the backpressure point for the event loop.
//
// With a scratch attached, sustained backpressure changes the story: once
// the queue has been full for `scratch.after` consecutive submits, the
// event loop pulls the oldest queued iteration, spills it to the local
// scratch file (fsynced — locally durable, so its chunks are released and
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

// spillJob diverts one iteration to the scratch file and completes it —
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

// complete is where every iteration ends, whether a writer, the inline
// executor or the spill path carried it: its iterations are durable (or
// definitively failed), so only now are their shared-memory chunks released
// — on error the data is gone either way, so liveness wins, release
// regardless. Each is charged perIt seconds of persisting and recorded for
// the in-order ack watermark; an iteration the watermark passes is acked
// (onDurable) and its entries go back to the catalog (recycle).
func (p *pipeline) complete(batch []persistJob, perIt float64, errs []error) {
	now := time.Now()
	for i, j := range batch {
		for _, e := range j.entries {
			e.Release()
		}
		p.tracer.Record(obs.StageAck, p.server, j.it, j.submitted, now.Sub(j.submitted), j.bytes, errs[i] != nil)
	}
	p.ackMu.Lock()
	p.mu.Lock()
	for i, j := range batch {
		p.completed++
		p.inFlight--
		p.depthAcc.Add(float64(p.inFlight))
		lat := now.Sub(j.submitted).Seconds()
		p.latAcc.Add(lat)
		if errs[i] != nil {
			p.failures++
		}
		p.done[j.seq] = persistDone{it: j.it, entries: j.entries, persistDur: perIt, latency: lat, bytes: j.bytes, err: errs[i]}
	}
	// Advance the ack watermark over every contiguous completed seq.
	var acks []persistDone
	for d, ok := p.done[p.ackSeq]; ok; d, ok = p.done[p.ackSeq] {
		delete(p.done, p.ackSeq)
		p.ackSeq++
		acks = append(acks, d)
	}
	p.mu.Unlock()
	// Deliver under ackMu (not p.mu, which writers need to complete other
	// batches): a second writer advancing the watermark further must wait
	// here until these earlier acks are delivered.
	for _, d := range acks {
		if p.onDurable != nil {
			p.onDurable(d.it, d.persistDur, d.latency, d.bytes, d.err)
		}
		if p.recycle != nil {
			p.recycle(d.entries)
		}
	}
	p.ackMu.Unlock()
}

// close stops accepting work, waits for the writers to drain every queued
// iteration, then gives the scratch drainer one final attempt at any spill
// backlog; a frame it cannot replay stays in the scratch file (recovered on
// the next start) and is the error returned. Idempotent is the caller's job
// (Server.Close uses a sync.Once).
func (p *pipeline) close() error {
	p.mu.Lock()
	closed := p.closed
	p.closed = true
	p.mu.Unlock()
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
	batch := make([]persistJob, 0, p.maxBatch)
	for job := range p.jobs {
		batch = append(batch[:0], job)
		for len(batch) < p.maxBatch {
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

// persistAndAck writes one batch durably and completes it. slot is the calling
// writer's, or negative on the inline executor's event loop.
func (p *pipeline) persistAndAck(slot int, batch []persistJob) {
	start := time.Now()
	errs := make([]error, len(batch))
	if bp, ok := p.persister.(BatchPersister); ok && len(batch) > 1 {
		// A batch-aware scheduler waits once per batch, for the slot of the
		// batch's first iteration (§IV-D slots composed with write-behind
		// batching; non-batch-aware schedulers never see batches — maxBatch
		// is 1 then).
		if bs, ok := p.scheduler.(BatchScheduler); ok {
			lo, hi := batch[0].it, batch[0].it
			for _, j := range batch[1:] {
				if j.it < lo {
					lo = j.it
				}
				if j.it > hi {
					hi = j.it
				}
			}
			bs.WaitTurnBatch(lo, hi)
		}
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
			if p.scheduler != nil {
				p.scheduler.WaitTurn(j.it)
			}
			errs[i] = p.persister.Persist(j.it, j.entries)
		}
	}
	callDur := time.Since(start)
	dur := callDur.Seconds()

	// Lifecycle spans, one triple per iteration: queue wait (submit to
	// writer pickup), persist (each iteration carries the whole batch's
	// call span — its durability really did take that long) and, in
	// complete, the full submit-to-durable ack latency the flow window
	// tracks.
	for i, j := range batch {
		p.tracer.Record(obs.StageQueue, p.server, j.it, j.submitted, start.Sub(j.submitted), j.bytes, false)
		p.tracer.Record(obs.StagePersist, p.server, j.it, start, callDur, j.bytes, errs[i] != nil)
	}
	p.mu.Lock()
	if slot >= 0 {
		p.ws.AddBusy(slot, dur)
	}
	p.batchAcc.Add(float64(len(batch)))
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
	// Workers is the writer goroutine count (0 = the pipeline persists
	// inline on the event loop).
	Workers int
	// QueueDepth is the configured bound on queued iterations.
	QueueDepth int
	// Window is the client flow-window depth — how many iterations a client
	// may run ahead of the last durable one: 1 with the inline executor,
	// QueueDepth with writers, and with a scratch file attached what the
	// shared buffer holds (its size over one write phase of the server's
	// clients, minus one, never below QueueDepth), so that a full queue
	// overflows into the spill instead of stopping the clients.
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
	// WriterBusy is seconds each writer spent inside the persister, one
	// slot per writer.
	WriterBusy []float64
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
	// scratch file is configured).
	Spill SpillStats
	// Aggregate snapshots the node-level aggregation tier. Only the node's
	// leader server reports it (siblings report zero), so summing across
	// servers counts each node exactly once. Filled by Server.PipelineStats.
	Aggregate aggregate.Stats
	// AggregateGlobal snapshots the cross-node tier on the aggregator host
	// ("node" mode); zero everywhere else.
	AggregateGlobal aggregate.Stats
	// AggregateForwarded counts epochs this node's leader forwarded to the
	// dedicated aggregator node ("node" mode, non-host leaders).
	AggregateForwarded int64
	// Shards snapshots the dedicated core's event-loop shards (one entry per
	// shard loop; a single classic loop reports one). Filled by
	// Server.PipelineStats.
	Shards []ShardStat
}

// snapshot captures the pipeline metrics at a point in time.
func (p *pipeline) snapshot(queueDepth int) PipelineStats {
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
		QueueDepth:   queueDepth,
		Enqueued:     p.enqueued,
		Completed:    p.completed,
		Failures:     p.failures,
		MaxInFlight:  p.maxDepth,
		Depth:        p.depthAcc.Summary(),
		FlushLatency: p.latAcc.Summary(),
		BatchSize:    p.batchAcc.Summary(),
		WriterBusy:   p.ws.Busy(),
		Utilization:  p.ws.Utilization(wall),
	}
}
