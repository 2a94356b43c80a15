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

// initMsg is what a dedicated core sends each of its clients at start time:
// the shared segment, the client's shard queue, and the pipeline whose ack
// watermark is the client's flow window.
type initMsg struct {
	seg      *shm.Segment
	queue    *event.Queue
	pipe     *pipeline
	localIdx int // client index within the server's group (allocator slot)
}

// Deployment is the per-rank outcome of Deploy: exactly one of Client or
// Server is non-nil.
type Deployment struct {
	// Client is non-nil on compute cores.
	Client *Client
	// Server is non-nil on dedicated cores.
	Server *Server
	// ClientComm spans all compute cores across all nodes — the
	// communicator the simulation itself runs on (CM1's world, shrunk by
	// the dedicated cores). It is nil on dedicated cores.
	ClientComm *mpi.Comm
}

// IsClient reports whether this rank is a compute core.
func (d *Deployment) IsClient() bool { return d.Client != nil }

// Options tune deployment beyond the configuration file.
type Options struct {
	// Persister overrides the default persistency layer on servers: a
	// DSFPersister over the backend <store backend> names, which a
	// deployment without a Persister must therefore set.
	Persister Persister
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
// should hold at least window+1 write phases (planBuffer derives the
// window). Flow control bounds every client to `window` iterations beyond
// the pipeline's last acked one, so that much space guarantees progress,
// while less can deadlock (a fast client's iteration-N+k data occupying
// space a sibling needs to finish N). Deploy allocates only the phases clients
// fill in steady state, the rest as they reach it. The lock-free
// partitioned allocator cannot cross-starve and needs only window+1 phases
// per client partition.
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
	if opts.Persister == nil && cfg.PersistBackend == "" {
		return nil, fmt.Errorf("core: no persister and no <store backend> (-persist-backend) to write to")
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

	// Every rank plans every group's buffer from collective data, so a
	// buffer too small for <aggregate> fails the whole deployment
	// symmetrically instead of leaving clients parked in the handshake.
	segSize := cfg.BufferSize / int64(servers)
	for g := 0; g < servers; g++ {
		if _, _, err := planBuffer(cfg, segSize, g, len(groupClients(g, clients, servers))); err != nil {
			return nil, err
		}
	}

	dep := &Deployment{}
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
		window, parts, _ := planBuffer(cfg, segSize, g, len(group))
		segOpt := shm.WithParts(parts...)
		if cfg.Allocator == "lockfree" {
			segOpt = shm.WithLockFree(len(group))
		}
		seg, err := shm.NewSegment(segSize, segOpt)
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
		store := metadata.NewSharded(nsh)
		tally := event.NewTally(len(group))
		engines := make([]*event.Engine, nsh)
		for i := range engines {
			eng, err := event.NewShardEngine(cfg, reg, store, tally, world.WorldRank())
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
		srv, err := newServer(serverSpec{cfg: cfg, opts: opts, engines: engines, queues: queues, seg: seg, window: window,
			worldRank: world.WorldRank(), node: node.Node(), agg: sagg})
		if err != nil {
			seg.Close()
			return nil, err
		}
		// Only a server that built sends the handshake; a failed one leaves
		// its clients in the Recv below, which aborting the world unwinds.
		for localIdx, clientNodeRank := range group {
			node.Send(clientNodeRank, tagInit,
				initMsg{seg: seg, queue: queues[localIdx%nsh], pipe: srv.pipe, localIdx: localIdx})
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
	dep.Client = newClient(cfg, msg.seg, msg.queue, msg.pipe, world.WorldRank(), msg.localIdx)
	return dep, nil
}

// planBuffer derives one dedicated core's flow window, and the parts of its
// segSize-byte segment (shm.WithParts), from group g's write phase: every
// declared variable once per member client.
//
// The window is the persist queue depth, which the write-behind pipeline can
// usefully absorb exactly: further ahead would only grow memory, less would
// idle the writers. With a scratch store it opens to what the segment holds
// (segSize/phase phases, one fewer ahead): spilled iterations release their
// chunks, so the segment, not the queue, bounds a client; and a window no
// wider than the queue keeps at most queue+1 iterations in flight against
// the pipeline's workers+queue, so the queue is never found full twice in a
// row and nothing spills.
//
// Flow control keeps at most window+1 phases in flight; in steady state
// clients fill one plus one per persist writer, which Deploy allocates. Each
// further phase is a part allocated when a client first reaches it, the rest
// one more. A scratch store or no variable declared (no estimate): one part.
// With <aggregate> on, a member's chunks stay pinned until the node's epoch
// is durable (the slowest sibling's durability window, aggregate.Stats), so
// a segment below window+1 phases deadlocks the node once one lags: an error.
func planBuffer(cfg *config.Config, segSize int64, g, members int) (window int64, parts []int64, err error) {
	window = int64(cfg.PersistQueueDepth)
	phase := cfg.PhaseBytesPerClient() * int64(members)
	if phase == 0 {
		return window, nil, nil
	}
	if cfg.SpillDir != "" {
		return max(window, segSize/phase-1), nil, nil
	}
	need := (window + 1) * phase
	if cfg.AggregateEnabled() && segSize < need {
		return 0, nil, fmt.Errorf(
			"core: <aggregate> pins chunks for the slowest sibling's durability window: "+
				"shared buffer %d B per dedicated core (group %d) is below the derived bound %d B "+
				"(window %d + 1 write phases x %d B/phase, every declared variable once per client); "+
				"raise <buffer size>, lower persist_queue_depth, or trim unwritten <variable> declarations",
			segSize, g, need, window, phase)
	}
	parts = []int64{(min(window, int64(cfg.PersistWorkers)) + 1) * phase}
	for n := parts[0]; n < need; n += phase {
		parts = append(parts, phase)
	}
	return window, parts, nil
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
