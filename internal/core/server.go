package core

import (
	"fmt"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/event"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// Scheduler delays a server's persistence to its assigned slot, the paper's
// communication-free data-transfer scheduling (§IV-D): "each dedicated core
// computes an estimation of the computation time of an iteration […] divided
// into as many slots as dedicated cores. Each dedicated core then waits for
// its slot before writing."
type Scheduler interface {
	// WaitTurn blocks until this server's slot for the iteration opens.
	WaitTurn(iteration int64)
}

// BatchScheduler is an optional Scheduler extension the write-behind
// pipeline probes for: a scheduler that understands batch-sized slots keeps
// multi-iteration batching enabled (one wait per batch, covering the
// batch's combined slot span) instead of forcing one-slot-per-iteration
// writes. schedule.SlotScheduler implements it.
type BatchScheduler interface {
	Scheduler
	// WaitTurnBatch blocks until this server's slot for a batch covering
	// iterations [first,last] opens.
	WaitTurnBatch(first, last int64)
}

// Server is the dedicated-core side of Damaris: it pulls events from the
// shared queue, maintains the metadata catalog through the EPE, and hands
// each completed iteration to the write-behind persistence pipeline, so
// that I/O overlaps the clients' next compute phase and a slow persister
// never stalls event draining. With PersistWorkers=0 the pipeline has no
// writers and persists inside the event loop — the coupled baseline the
// paper's dedicated-core design eliminates, kept for comparison runs.
type Server struct {
	cfg       *config.Config
	eng       *event.Engine // shard 0's engine (they share the store and tally)
	queue     *event.Queue  // shard 0's queue (where Inject routes)
	shards    []*shardLoop  // the event-loop shards; len 1 = the classic single loop
	started   time.Time     // server construction instant (wall base for busy fractions)
	stoppedAt time.Time     // set when the shard loops exit; freezes the busy-fraction wall clock so post-run expositions are byte-stable
	seg       segmentCloser
	fc        *flow
	id        int // world rank of this dedicated core
	node      int
	group     int // dedicated-core index within the node
	persister Persister
	pipe      *pipeline       // completed iteration → durable → released → acked in order
	encPool   *dsf.EncodePool // nil when encode_workers is 0
	ownStore  store.Backend   // backend this server opened (and must close)
	agg       *serverAgg      // aggregation-layer state; nil when disabled

	// tracer records iteration-lifecycle spans (nil = tracing off);
	// iterFirst tracks when each open iteration's first write was made (the
	// earliest Event.At) so the StageWrite span covers the whole write
	// phase. Guarded by mu — with several shard loops any of them may open
	// an iteration.
	tracer    *obs.Tracer
	iterFirst map[int64]time.Time

	closeOnce sync.Once

	mu           sync.Mutex
	shardWS      stats.WorkerSet   // per-shard-loop busy bookkeeping (one slot per shard)
	writeDurs    recent[float64]   // seconds spent persisting, the most recent iterations
	writeAcc     stats.Accumulator // the same over the server's life, for WriteStats
	flushLats    recent[float64]   // seconds from iteration completion to durability
	spareDur     float64           // seconds spent idle waiting for events
	busyDur      float64           // seconds handling events (incl. persisting only with the inline executor)
	bytesWritten int64
	iterations   recent[int64] // the most recent iterations acked, for Iterations
	acked        int64         // iterations acked over the server's life
	handleErrs   []error
	flushErr     error // first persistence error, surfaced by Run/Close
	running      bool
}

// segmentCloser is the part of shm.Segment the server needs at shutdown.
type segmentCloser interface {
	Close()
}

// serverSpec is what Deploy resolved for one dedicated core: its event-loop
// shards, the segment and flow window it shares with its clients, and its
// place in the world.
type serverSpec struct {
	cfg  *config.Config
	opts Options
	// engines and queues pair up one per event-loop shard (len 1 = the
	// classic single loop); all engines share one metadata store and one
	// event.Tally.
	engines []*event.Engine
	queues  []*event.Queue
	seg     segmentCloser
	fc      *flow
	// worldRank, node and group place the server: its rank in the world, its
	// SMP node, its dedicated-core index within the node.
	worldRank, node, group int
	// agg is the server's aggregation-layer state; nil when disabled.
	agg *serverAgg
}

// newServer builds a dedicated-core server from its spec: it resolves the
// persister, then every stage of the persistence pipeline, and starts the
// pipeline last — so a stage that fails to open leaves no writer behind,
// and what the server had opened for itself by then is closed again.
func newServer(sp serverSpec) (*Server, error) {
	cfg, opts, engines, queues, fc, worldRank := sp.cfg, sp.opts, sp.engines, sp.queues, sp.fc, sp.worldRank
	if len(engines) == 0 || len(engines) != len(queues) {
		return nil, fmt.Errorf("core: server %d: %d engines for %d queues", worldRank, len(engines), len(queues))
	}
	s := &Server{
		cfg:       cfg,
		eng:       engines[0],
		queue:     queues[0],
		started:   time.Now(),
		seg:       sp.seg,
		fc:        fc,
		id:        worldRank,
		node:      sp.node,
		group:     sp.group,
		persister: opts.Persister,
		tracer:    opts.Obs.Tracer(),
		iterFirst: make(map[int64]time.Time),
		// One slot per shard loop: the busy bookkeeping the writer and
		// encode pools use.
		shardWS: stats.NewWorkerSet(len(engines)),
	}
	for i := range engines {
		s.shards = append(s.shards, &shardLoop{idx: i, queue: queues[i], eng: engines[i]})
	}
	stages := pipelineSpec{
		workers:   cfg.PersistWorkers,
		depth:     cfg.PersistQueueDepth,
		onDurable: s.iterationDurable,
		recycle:   engines[0].Store().Recycle,
		scheduler: opts.Scheduler,
		tracer:    s.tracer,
		server:    worldRank,
	}
	if sagg := sp.agg; sagg != nil {
		// Aggregation layer on: this server persists through its member
		// handle — Persist returns only once the node's (or node group's)
		// merged object is durable, so chunk release and the flow window
		// track merged durability. The leader's server adopts the epoch
		// writer's resources (encode pool, backend) it created.
		s.agg = sagg
		ap := newAggPersister(sagg)
		s.persister, stages.merge = ap, ap.submit
		s.encPool = sagg.pool
		s.ownStore = sagg.ownStore
	} else if s.persister == nil {
		p, pool, backend, err := newDefaultPersister(cfg, opts, sp.node, worldRank)
		if err != nil {
			return nil, err
		}
		s.persister, s.encPool, s.ownStore = p, pool, backend
	}
	stages.persister = s.persister
	// fail closes again what the server opened for itself (or adopted from
	// the aggregation leader) when a later stage cannot be built.
	fail := func(err error) (*Server, error) {
		s.encPool.Close()
		if s.ownStore != nil {
			s.ownStore.Close()
		}
		return nil, fmt.Errorf("core: server %d: %w", worldRank, err)
	}
	// The pools and persisters the server owns trace under its rank; shared
	// external ones wire their own tracer (see DSFPersister.SetTracer), the
	// same ownership rule the encode pool follows.
	s.encPool.SetTracer(s.tracer, worldRank)
	if cfg.SpillDir != "" {
		// Degraded-mode scratch file, one per dedicated core. Opening it
		// also performs crash recovery: frames a previous run left behind
		// are handed straight to the drainer, which replays them through
		// this server's normal persist path. Config.Validate has already
		// rejected spill with aggregation (spilled chunks are released
		// early, which the shared merge ring cannot tolerate) and spill
		// without an asynchronous pipeline.
		path := fmt.Sprintf("%s/node%04d_srv%04d.spill", cfg.SpillDir, sp.node, worldRank)
		sc, err := openScratch(path, cfg.SpillAfter, s.persister)
		if err != nil {
			return fail(err)
		}
		stages.scratch = sc
	}
	s.pipe = newPipeline(stages)
	for i, eng := range engines {
		shard := i
		eng.OnIterationEnd = func(it int64) error { s.flushIterationFrom(shard, it); return nil }
		// The last ClientExit (counted node-wide on the shared tally) closes
		// every shard queue so all loops drain and exit.
		eng.OnAllExited = func() error {
			for _, q := range queues {
				q.Close()
			}
			return nil
		}
	}
	if reg := opts.Obs.Registry(); reg != nil {
		s.RegisterObs(reg)
	}
	// Readiness, distinct from liveness: a server that is replaying a spill
	// backlog is alive but should not be considered ready (e.g. for
	// admitting more load).
	if sc := stages.scratch; sc != nil {
		opts.Obs.AddReadiness(fmt.Sprintf("server-%d-spill", worldRank), func() error {
			if pending := sc.stats().Pending; pending > 0 {
				return fmt.Errorf("spill backlog draining: %d iterations pending", pending)
			}
			return nil
		})
	}
	return s, nil
}

// RegisterObs registers this server's live metric collectors on a registry.
// A live scrape and damaris-run's end-of-run report are the same gather of
// the same registry. newServer calls it for the shared plane; damaris-run
// calls it again with per-rank registries so the federator can expose a
// rank-by-rank fleet view.
func (s *Server) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(func(e *obs.Emitter) {
		s.PipelineStats().Emit(e, "server", fmt.Sprint(s.id))
		s.emitServer(e, "server", fmt.Sprint(s.id))
	})
}

// ID returns the server's world rank.
func (s *Server) ID() int { return s.id }

// Node returns the SMP node the server runs on.
func (s *Server) Node() int { return s.node }

// Engine exposes the EPE (for tools that inject events, e.g. external
// steering per §III-A "events sent either by the simulation or by external
// tools").
func (s *Server) Engine() *event.Engine { return s.eng }

// Inject queues an event as an external tool would (onto shard 0's queue).
func (s *Server) Inject(ev event.Event) { s.queue.Push(ev) }

// ShardCount returns the number of event-loop shards this server runs
// (1 = the classic single loop).
func (s *Server) ShardCount() int { return len(s.shards) }

// Run executes the dedicated-core loop(s) until every client has finalized
// and all shard queues have drained. With one shard it runs the loop inline
// (the classic behavior); with several it runs one goroutine per shard and
// waits for all of them. It returns the first persistence error, if any;
// per-event handling errors (unknown variables, failing actions) are
// collected and available through HandleErrors, matching a long-running
// service that logs and continues.
func (s *Server) Run() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("core: server already running")
	}
	s.running = true
	s.mu.Unlock()

	if len(s.shards) == 1 {
		s.runShard(s.shards[0])
	} else {
		var wg sync.WaitGroup
		for _, sl := range s.shards {
			wg.Add(1)
			go func(sl *shardLoop) {
				defer wg.Done()
				s.runShard(sl)
			}(sl)
		}
		wg.Wait()
	}
	s.mu.Lock()
	s.stoppedAt = time.Now()
	s.mu.Unlock()
	// Flush anything left behind (clients that exited without ending their
	// last iteration).
	if leftover := s.eng.Store().Iterations(); len(leftover) > 0 {
		for _, it := range leftover {
			// Not attributed to an event-loop shard: every loop has drained.
			s.flushIterationFrom(-1, it)
		}
	}
	return s.Close()
}

// Close drains the persistence pipeline (every submitted iteration becomes
// durable or definitively fails), closes the shared segment, releases flow
// waiters, and returns the first persistence error observed over the
// server's lifetime. Run calls it on the way out; calling it again is a
// cheap no-op returning the same error. Close must not be called while
// clients are still producing events.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// A spill frame the scratch drainer could not replay on its final
		// attempt is surfaced as the close error.
		if err := s.pipe.close(); err != nil {
			s.noteFlushErr(fmt.Errorf("core: server %d: %w", s.id, err))
		}
		// Aggregation teardown: every contribution of this member is acked
		// (the pipeline drained), so declare it done; the leader then waits
		// for its siblings and drains the merge (and, on the aggregator
		// host, the cross-node receiver and the global tier).
		if s.agg != nil {
			s.agg.agg.MemberDone(s.agg.memberID)
			if err := s.agg.close(); err != nil {
				s.noteFlushErr(fmt.Errorf("core: server %d: close aggregator: %w", s.id, err))
			}
		}
		// Encode workers stop only after every persist writer drained: a
		// writer mid-WriteChunks still needs them.
		s.encPool.Close()
		// Likewise the storage backend: every committed object is durable
		// by now, so tearing it down cannot lose data.
		if s.ownStore != nil {
			if err := s.ownStore.Close(); err != nil {
				s.noteFlushErr(fmt.Errorf("core: server %d: close backend: %w", s.id, err))
			}
		}
		s.seg.Close()
		s.fc.close()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushErr
}

// noteFlushErr keeps err as the error Run and Close return, unless an earlier
// one is already held.
func (s *Server) noteFlushErr(err error) {
	s.mu.Lock()
	if s.flushErr == nil {
		s.flushErr = err
	}
	s.mu.Unlock()
}

// flushIterationFrom hands one completed iteration to the persistence
// pipeline. It is the engine's OnIterationEnd hook, so it runs on the
// dedicated core — the simulation never waits for it; with several shard
// loops the engine's tally has already serialized flushes into
// ascending-iteration order, so at most one flush runs at a time (the
// pipeline's single-submitter contract). `shard` is the loop that counted the
// iteration's last EndIteration (-1 = not shard-attributed). With writers the
// hand-off is a bounded-queue send (blocking only when the pipeline is
// `persist_queue_depth` iterations behind — the backpressure point); the
// event loop then resumes draining client events while writers persist.
// Entries leave the metadata catalog here but their shared-memory chunks
// stay pinned until the pipeline reports the iteration durable. A persist
// error reaches HandleErrors and Run through iterationDurable.
func (s *Server) flushIterationFrom(shard int, it int64) {
	entries := s.eng.Store().TakeIteration(it)
	if s.tracer != nil {
		// StageWrite: first client write → iteration complete, the write
		// phase the paper measures as the dedicated core sees it,
		// attributed to the shard that completed the iteration.
		s.mu.Lock()
		t0, ok := s.iterFirst[it]
		if ok {
			delete(s.iterFirst, it)
		}
		s.mu.Unlock()
		if ok {
			var bytes int64
			for _, e := range entries {
				bytes += e.Size()
			}
			s.tracer.RecordShard(obs.StageWrite, s.id, shard, it, t0, time.Since(t0), bytes, false)
		}
	}
	s.pipe.submit(it, entries)
}

// iterationDurable records one iteration's durability and advances the
// client flow-control window. The pipeline invokes it in submission (ack)
// order once the iteration and all earlier ones are durable.
func (s *Server) iterationDurable(it int64, persistDur, latency float64, bytes int64, err error) {
	s.mu.Lock()
	s.writeDurs.add(persistDur)
	s.writeAcc.Add(persistDur)
	s.flushLats.add(latency)
	s.iterations.add(it)
	s.acked++
	if err == nil {
		s.bytesWritten += bytes
	} else {
		// Pipeline errors never travel through Engine.Handle, so record
		// them here for HandleErrors/Run.
		werr := fmt.Errorf("core: server %d: persist iteration %d: %w", s.id, it, err)
		s.handleErrs = append(s.handleErrs, werr)
		if s.flushErr == nil {
			s.flushErr = werr
		}
	}
	s.mu.Unlock()
	// Unblock clients waiting at the flow-control window; on persist error
	// the data is gone either way, so liveness wins.
	s.fc.setFlushed(it)
}

// WriteTimes returns the seconds each of the most recent iteration flushes
// (up to recentCap of them) took on the dedicated core (the paper's Figure 5
// "Write time").
func (s *Server) WriteTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeDurs.values()
}

// SpareSeconds returns the total time the dedicated core spent idle — the
// paper's "spare time […] dedicated cores are not performing any task",
// which §IV-C2 reports as 75%–99% of their time.
func (s *Server) SpareSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spareDur
}

// BusySeconds returns the total time spent handling events and persisting.
func (s *Server) BusySeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyDur
}

// BytesWritten returns the total payload bytes successfully persisted.
func (s *Server) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// Iterations returns the most recent iterations flushed (up to recentCap of
// them), in completion order.
func (s *Server) Iterations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.iterations.values()
}

// HandleErrors returns the per-event errors collected during Run.
func (s *Server) HandleErrors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.handleErrs...)
}

// WriteStats summarizes the dedicated core's per-iteration write times:
// count, mean, extremes and deviation over the server's life, the quantiles
// over what WriteTimes returns.
func (s *Server) WriteStats() stats.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, life := stats.Summarize(s.writeDurs.buf), s.writeAcc.Summary()
	life.Median, life.P95, life.P99 = sum.Median, sum.P95, sum.P99
	return life
}

// FlushLatencies returns, for the most recent iterations (up to recentCap of
// them) in ack order, the seconds from iteration completion (all clients
// ended it) to durability. With the inline executor this equals the write
// time; with writers it additionally includes queueing delay.
func (s *Server) FlushLatencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLats.values()
}

// PipelineStats snapshots the persistence pipeline's per-stage metrics
// (queue depth, flush latency, batch size, writer utilization, encode-stage
// latency and pool utilization).
func (s *Server) PipelineStats() PipelineStats {
	ps := s.pipe.snapshot(s.cfg.PersistQueueDepth)
	ps.Window = int(s.fc.window)
	ps.Shards = s.shardStats()
	// Report the pool this server owns, or the one an external persister
	// carries; nil pools yield zero stats.
	pool := s.encPool
	if pool == nil {
		if pp, ok := s.persister.(interface{ EncodePool() *dsf.EncodePool }); ok {
			pool = pp.EncodePool()
		}
	}
	ps.Encode = pool.Stats()
	// Storage-backend metrics, when the persister exposes them (the DSF
	// persister always does once it has written).
	if ss, ok := s.persister.(StoreStatser); ok {
		ps.Store = ss.StoreStats()
	}
	// Aggregation metrics: the node leader reports its tier (and the
	// aggregator host the global one), siblings stay zero so per-run sums
	// count every node once.
	if s.agg != nil && s.agg.leader {
		ps.Aggregate = s.agg.agg.Stats()
		if s.agg.global != nil {
			ps.AggregateGlobal = s.agg.global.Stats()
		}
		if s.agg.fwd != nil {
			ps.AggregateForwarded = s.agg.fwd.Forwarded()
		}
	}
	return ps
}

// Persister is the persistency layer invoked once per completed iteration
// with that iteration's catalogued entries (paper §III-C: "our
// implementation of Damaris interfaces with HDF5 by using a custom
// persistency layer embedded in a plugin").
type Persister interface {
	Persist(iteration int64, entries []*metadata.Entry) error
}
