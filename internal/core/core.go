// Package core implements the Damaris middleware itself: the deployment of
// dedicated I/O cores on every SMP node, the client-side API compute cores
// use to hand datasets over through shared memory, and the dedicated-core
// server loop that asynchronously processes and persists them.
//
// This is the paper's primary contribution (§III): "Damaris consists of a
// set of MPI processes running on a set of dedicated cores (typically one)
// in every SMP node used by the simulation. Each dedicated process keeps
// data in a shared memory segment and performs post-processing, filtering,
// indexing and finally I/O in response to user-defined events sent either by
// the simulation or by external tools."
//
// Deployment: Deploy splits each node's intra-node communicator so that the
// last DedicatedCores ranks become servers and the rest clients. Each server
// creates the shared-memory segment and event queue at start time (paper
// §III-B) and hands references to its client group. With several dedicated
// cores per node the clients are partitioned symmetrically among them
// (paper §V-A).
package core

import (
	"fmt"
	"sync"

	"damaris/internal/config"
	"damaris/internal/event"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/plugin"
	"damaris/internal/shm"
)

// tagInit is the intra-node user tag carrying the server→client handshake.
const tagInit = 1

// initMsg is what a dedicated core sends each of its clients at start time.
type initMsg struct {
	seg      *shm.Segment
	queue    *event.Queue
	fc       *flow
	localIdx int // client index within the server's group (allocator slot)
}

// flow is the iteration-window flow control between a dedicated core and
// its clients. Clients may run at most `window` iterations ahead of the
// last durably flushed one; without this bound, a fast client can fill the
// shared buffer with many unflushed iterations of its own while a slow
// sibling never gets the space to finish the oldest — and the oldest can
// then never flush. (The lock-free partitioned allocator cannot starve
// siblings, but the window still bounds memory and is kept uniform.)
//
// The window is 1 for the synchronous baseline (the seed behaviour) and
// equals the persistence pipeline's queue depth when flushing is
// asynchronous: the pipeline can usefully absorb exactly that many
// iterations, so letting clients run further ahead would only grow memory,
// while a smaller window would idle the writers. With a scratch file
// attached it is what the shared buffer holds instead (see Deploy). Deploy
// chooses it once; it never changes afterwards.
type flow struct {
	window  int64 // fixed at construction
	mu      sync.Mutex
	cond    *sync.Cond
	flushed int64 // highest durably flushed iteration; -1 before any
	closed  bool
}

func newFlow(window int64) *flow {
	if window < 1 {
		window = 1
	}
	f := &flow{window: window, flushed: -1}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// setFlushed records a durably completed flush and wakes waiting clients.
// The persistence pipeline calls it in ack order, so `flushed` only ever
// advances over iterations whose predecessors are durable too.
func (f *flow) setFlushed(it int64) {
	f.mu.Lock()
	if it > f.flushed {
		f.flushed = it
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// wait blocks a client that just ended iteration `it` until that leaves it
// at most `window` iterations ahead of the last durable flush (or the
// server shut down).
func (f *flow) wait(it int64) {
	f.mu.Lock()
	for f.flushed < it-f.window && !f.closed {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// close releases all waiters permanently (server shutdown).
func (f *flow) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Deployment is the per-rank outcome of Deploy: exactly one of Client or
// Server is non-nil.
type Deployment struct {
	// Client is non-nil on compute cores.
	Client *Client
	// Server is non-nil on dedicated cores.
	Server *Server
	// NodeComm is the intra-node communicator (all ranks of this node).
	NodeComm *mpi.Comm
	// ClientComm spans all compute cores across all nodes — the
	// communicator the simulation itself runs on (CM1's world, shrunk by
	// the dedicated cores). It is nil on dedicated cores.
	ClientComm *mpi.Comm
	// NodeClients and NodeServers are the per-node role counts.
	NodeClients int
	NodeServers int
}

// IsClient reports whether this rank is a compute core.
func (d *Deployment) IsClient() bool { return d.Client != nil }

// Options tune deployment beyond the configuration file.
type Options struct {
	// OutputDir is where persistency actions write DSF files.
	OutputDir string
	// Persister overrides the default DSF persistency layer on servers.
	Persister Persister
	// Scheduler, when non-nil, delays each server's persistence to its
	// assigned slot (paper §IV-D, "Data transfer scheduling"). Schedulers
	// that also implement BatchScheduler keep write-behind batching enabled.
	Scheduler Scheduler
	// Obs, when non-nil, is the telemetry plane every server wires into:
	// pipeline stats register as live collectors on its registry, and the
	// write→encode→queue/spill→persist→merge→commit→ack lifecycle records
	// spans on its tracer. Nil means observability off (zero overhead
	// beyond one nil check per instrumentation point).
	Obs *obs.Plane
}

// Deploy initializes Damaris on every rank of world. Compute cores receive a
// Client; dedicated cores receive a Server whose Run method must be called
// (it blocks until all its clients finalize). All ranks must call Deploy
// collectively.
//
// Buffer sizing: with the shared ("mutex") allocator the per-node buffer
// should hold at least window+1 write phases' worth of data, where the
// flow-control window is 1 for the synchronous baseline and
// persist_queue_depth for the write-behind pipeline. Built-in flow control
// bounds every client to `window` iterations beyond the last durable
// flush, so at most window+1 iterations are ever in flight; that much
// space therefore guarantees progress, while less can deadlock (a fast
// client's iteration-N+k data occupying space a sibling needs to finish
// N). The lock-free partitioned allocator cannot cross-starve and needs
// only window+1 phases per client partition.
func Deploy(world *mpi.Comm, cfg *config.Config, reg *plugin.Registry, opts Options) (*Deployment, error) {
	if world == nil {
		return nil, fmt.Errorf("core: nil world communicator")
	}
	if cfg == nil {
		return nil, fmt.Errorf("core: nil configuration")
	}
	// Hold programmatically built (or mutated) configurations to the same
	// rules as parsed ones: a negative worker count or an unknown backend
	// scheme must fail deployment, not silently select another behavior.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = plugin.NewRegistry()
	}
	RegisterBuiltins(reg)

	node := world.SplitByNode()
	n := node.Size()
	servers := cfg.DedicatedCores
	if servers < 1 {
		return nil, fmt.Errorf("core: need at least one dedicated core per node, config says %d", servers)
	}
	if servers >= n {
		return nil, fmt.Errorf("core: %d dedicated cores leave no clients on a %d-core node", servers, n)
	}
	clients := n - servers

	// Flow window: 1 for the synchronous baseline, the persist queue depth
	// for the write-behind pipeline (a dedicated core with a scratch file
	// widens its own below).
	window := int64(1)
	if cfg.PersistWorkers > 0 {
		window = int64(cfg.PersistQueueDepth)
	}

	// Aggregation-aware buffer bound: with <aggregate> on, a member's chunks
	// stay pinned until the *whole node's* epoch is durable — the slowest
	// sibling's durability window (aggregate.Stats reports the observed
	// value), not just this core's own flush. The window+1 rule therefore
	// becomes a hard liveness requirement per dedicated core: a buffer that
	// cannot hold window+1 phases deadlocks the node the moment one sibling
	// lags. Every rank can derive the bound from collective data, so a
	// violation fails the whole deployment symmetrically instead of leaving
	// clients parked in the handshake.
	if cfg.AggregateEnabled() {
		perClient := cfg.PhaseBytesPerClient()
		segSize := cfg.BufferSize / int64(servers)
		for g := 0; g < servers; g++ {
			phase := perClient * int64(len(groupClients(g, clients, servers)))
			if phase == 0 {
				continue
			}
			if need := (window + 1) * phase; segSize < need {
				return nil, fmt.Errorf(
					"core: <aggregate> pins chunks for the slowest sibling's durability window: "+
						"shared buffer %d B per dedicated core (group %d) is below the derived bound %d B "+
						"(window %d + 1 write phases x %d B/phase, every declared variable once per client); "+
						"raise <buffer size>, lower persist_queue_depth, or trim unwritten <variable> declarations",
					segSize, g, need, window, phase)
			}
		}
	}

	dep := &Deployment{NodeComm: node, NodeClients: clients, NodeServers: servers}
	myNodeRank := node.Rank()

	// Build the all-clients communicator collectively: compute cores get
	// color 0 ordered by world rank; dedicated cores opt out.
	clientColor := 0
	if myNodeRank >= clients {
		clientColor = -1
	}
	dep.ClientComm = world.Split(clientColor, world.Rank())

	if myNodeRank >= clients {
		// Dedicated core: create shared resources and hand them out.
		g := myNodeRank - clients
		group := groupClients(g, clients, servers)
		segSize := cfg.BufferSize / int64(servers)

		// With a scratch file the window opens to what the buffer holds: the
		// segment fits segSize/phaseBytes write phases of this group's
		// estimated volume, so clients may run one fewer iterations ahead.
		// Spilled iterations release their chunks, so the segment, not the
		// queue, is what bounds a client; and a window no wider than the queue
		// keeps at most queue+1 iterations in flight against the pipeline's
		// workers+queue, so the queue is never found full twice in a row and
		// nothing spills. With no variable declared there is no estimate and
		// the queue depth stands.
		if phaseBytes := cfg.PhaseBytesPerClient() * int64(len(group)); cfg.SpillDir != "" && phaseBytes > 0 {
			if held := segSize/phaseBytes - 1; held > window {
				window = held
			}
		}

		var segOpts []shm.Option
		if cfg.Allocator == "lockfree" {
			segOpts = append(segOpts, shm.WithLockFree(len(group)))
		}
		seg, err := shm.NewSegment(segSize, segOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", g, err)
		}
		// Event-loop sharding: one queue+engine pair per shard, all over one
		// sharded metadata store and one node-wide tally (iteration
		// completion, signals and exits are counted across shards). Clients
		// are routed to shards by local index, so each client's events keep
		// their FIFO order on a single shard queue.
		nsh := effectiveShards(cfg, len(group))
		queues := make([]*event.Queue, nsh)
		for i := range queues {
			queues[i] = event.NewQueue()
		}
		event.LinkQueues(queues)
		fc := newFlow(window)
		for localIdx, clientNodeRank := range group {
			node.Send(clientNodeRank, tagInit,
				initMsg{seg: seg, queue: queues[localIdx%nsh], fc: fc, localIdx: localIdx})
		}
		store := metadata.NewSharded(nsh)
		tally := event.NewTally(len(group))
		engines := make([]*event.Engine, nsh)
		for i := range engines {
			eng, err := event.NewShardEngine(cfg, reg, store, tally, world.WorldRank(), node.Node(), opts.OutputDir)
			if err != nil {
				return nil, fmt.Errorf("core: server %d: %w", g, err)
			}
			engines[i] = eng
		}
		var sagg *serverAgg
		if cfg.AggregateEnabled() {
			sagg, err = setupAggregation(node, cfg, opts,
				clients, servers, g, node.Node(), world.WorldRank())
			if err != nil {
				seg.Close()
				return nil, err
			}
		}
		srv, err := newServer(serverSpec{cfg: cfg, opts: opts, engines: engines, queues: queues, seg: seg, fc: fc,
			worldRank: world.WorldRank(), node: node.Node(), group: g, agg: sagg})
		if err != nil {
			seg.Close()
			return nil, err
		}
		dep.Server = srv
		return dep, nil
	}

	// Compute core: receive the handshake from its dedicated core.
	g := groupOf(myNodeRank, clients, servers)
	serverNodeRank := clients + g
	raw := node.Recv(serverNodeRank, tagInit)
	msg, ok := raw.(initMsg)
	if !ok {
		return nil, fmt.Errorf("core: client %d: bad handshake payload %T", myNodeRank, raw)
	}
	dep.Client = newClient(cfg, msg.seg, msg.queue, msg.fc, world.WorldRank(), msg.localIdx)
	return dep, nil
}

// groupOf maps a client's node rank to its dedicated-core group, splitting
// the clients into `servers` contiguous, balanced groups.
func groupOf(clientNodeRank, clients, servers int) int {
	return clientNodeRank * servers / clients
}

// groupClients lists the node ranks of the clients served by group g.
func groupClients(g, clients, servers int) []int {
	var out []int
	for i := 0; i < clients; i++ {
		if groupOf(i, clients, servers) == g {
			out = append(out, i)
		}
	}
	return out
}
