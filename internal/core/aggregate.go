package core

import (
	"fmt"
	"sync"

	"damaris/internal/aggregate"
	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// tagAggr is the intra-node user tag carrying the leader→sibling
// aggregation handshake (tagInit carries the server→client one).
const tagAggr = 2

// aggrInitMsg is what a node's aggregation leader sends each sibling
// dedicated core at deploy time: the shared aggregator and the sibling's
// member id within it.
type aggrInitMsg struct {
	agg    *aggregate.Aggregator
	member int
}

// serverAgg is one server's view of the aggregation layer. Every dedicated
// core holds a member handle; the node's leader (group 0 — the
// deterministic, communication-free election) additionally owns the node
// aggregator, and in "node" mode the aggregator-host leader owns the global
// tier and its fan-in receiver too.
type serverAgg struct {
	agg      *aggregate.Aggregator // the node-level aggregator (shared)
	memberID int                   // this server's member id (world rank)

	// Leader-only state.
	leader  bool
	statser StoreStatser // store metrics source behind the epoch writer
	fwd     *aggregate.Forwarder

	// Aggregator-host-only state ("node" mode, lowest node's leader).
	global  *aggregate.Aggregator
	recvErr chan error

	// Resources the leader created for the default epoch writer, adopted by
	// its Server (which already owns teardown of both kinds).
	pool     *dsf.EncodePool
	ownStore store.Backend
}

// aggPersister adapts a member handle on the aggregation layer to the
// pipeline's Persister/BatchPersister contract. Contributions are submitted
// from the event loop (submit is the pipeline's merge stage, run before the
// iteration is queued), which is what guarantees each member's epochs reach
// the fan-in ring in ascending order — pipeline writers race each other, the
// event loop does not. Persist then only waits: it blocks until
// the *merged* object containing this member's contribution is durable, so
// the pipeline's release-after-persist rule keeps shared-memory chunks
// pinned exactly until then, and the flow window advances on merged
// durability.
type aggPersister struct {
	sa *serverAgg

	mu    sync.Mutex
	waits map[int64]<-chan error
}

func newAggPersister(sa *serverAgg) *aggPersister {
	return &aggPersister{sa: sa, waits: make(map[int64]<-chan error)}
}

// submit hands one completed iteration to the aggregation leader. Called by
// the event loop in iteration-completion (ascending) order; it blocks only
// when the fan-in ring is full — the aggregation backpressure point.
func (p *aggPersister) submit(it int64, entries []*metadata.Entry) {
	ch := p.sa.agg.Submit(p.sa.memberID, it, entries)
	p.mu.Lock()
	p.waits[it] = ch
	p.mu.Unlock()
}

// wait returns the ack channel submit stored for the iteration.
func (p *aggPersister) wait(it int64) <-chan error {
	p.mu.Lock()
	ch := p.waits[it]
	delete(p.waits, it)
	p.mu.Unlock()
	return ch
}

func (p *aggPersister) Persist(it int64, _ []*metadata.Entry) error {
	return <-p.wait(it)
}

// PersistBatch collects every iteration's ack channel before waiting on
// any, so a multi-iteration batch never deadlocks the epoch protocol
// (siblings need this member's epoch N contribution to complete N while
// this member is already waiting on it).
func (p *aggPersister) PersistBatch(batch []IterationBatch) error {
	chans := make([]<-chan error, len(batch))
	for i, b := range batch {
		chans[i] = p.wait(b.Iteration)
	}
	var first error
	for _, ch := range chans {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoreStats exposes the merged-object writer's backend metrics (leader
// only; sibling members report zero — cmd/damaris-run aggregates across
// servers, so the node's figures are counted exactly once).
func (p *aggPersister) StoreStats() store.Stats {
	if p.sa.statser == nil {
		return store.Stats{}
	}
	return p.sa.statser.StoreStats()
}

// setupAggregation wires one dedicated core into the node's aggregation
// layer. The leader (group 0) builds the node aggregator and hands sibling
// servers their member handles over the intra-node communicator; in "node"
// mode the node leaders additionally stand up the cross-node tier on their
// leader communicator (fan and ack channels are Dups, so the receiver
// goroutine and the sink own isolated handles).
func setupAggregation(nodeComm *mpi.Comm, leaderComm *mpi.Comm, cfg *config.Config,
	opts Options, clients, servers, g, nodeIdx, worldRank int) (*serverAgg, error) {
	if g != 0 {
		// Sibling dedicated core: receive the member handle from the leader.
		raw := nodeComm.Recv(clients, tagAggr)
		msg, ok := raw.(aggrInitMsg)
		if !ok {
			return nil, fmt.Errorf("core: server %d: bad aggregation handshake payload %T", worldRank, raw)
		}
		if msg.agg == nil {
			return nil, fmt.Errorf("core: server %d: aggregation leader failed setup", worldRank)
		}
		return &serverAgg{agg: msg.agg, memberID: msg.member}, nil
	}

	// Leader: any setup failure below must still complete the sibling
	// handshake (with a nil aggregator), or the siblings' Recv blocks the
	// whole deployment instead of surfacing the error.
	fail := func(err error) (*serverAgg, error) {
		for i := 1; i < servers; i++ {
			nodeComm.Send(clients+i, tagAggr, aggrInitMsg{})
		}
		return nil, err
	}

	sa := &serverAgg{leader: true}
	// Resolve the epoch writer the merged objects go through: the provided
	// persister when it can (damaris-run's case), else the default one.
	var writer aggregate.EpochWriter
	if opts.Persister != nil {
		w, ok := opts.Persister.(aggregate.EpochWriter)
		if !ok {
			return fail(fmt.Errorf("core: server %d: aggregation needs a PersistAsWith-capable persister, got %T",
				worldRank, opts.Persister))
		}
		writer = w
		if ss, ok := opts.Persister.(StoreStatser); ok {
			sa.statser = ss
		}
	} else {
		p, pool, backend, err := newDefaultPersister(cfg, opts, nodeIdx, worldRank)
		if err != nil {
			return fail(err)
		}
		writer, sa.statser = p, p
		sa.pool, sa.ownStore = pool, backend
	}

	// Members are the node's dedicated cores, identified by world rank (the
	// id the merged objects' "servers" attribute lists).
	members := make([]int, servers)
	for i := 0; i < servers; i++ {
		members[i] = nodeComm.WorldRankOf(clients + i)
	}

	var sink aggregate.Sink
	switch cfg.AggregateMode {
	case "node":
		// Cross-node tier: the leader communicator spans every node's
		// leader; its rank 0 hosts the global aggregator (the "dedicated
		// aggregator node"). Fan and ack travel on Dups so the host's
		// receiver goroutine and each leader's sink own isolated handles.
		fan := leaderComm.Dup()
		ack := leaderComm.Dup()
		if leaderComm.Rank() == 0 {
			nodeOf := func(r int) int {
				w := leaderComm.World()
				return w.NodeOf(leaderComm.WorldRankOf(r))
			}
			globalMembers := make([]int, leaderComm.Size())
			sources := make(map[int]int)
			for r := 0; r < leaderComm.Size(); r++ {
				globalMembers[r] = nodeOf(r)
				if r != 0 {
					sources[r] = nodeOf(r)
				}
			}
			global, err := aggregate.New(aggregate.Config{
				Mode:        "node",
				Members:     globalMembers,
				RingDepth:   cfg.AggregateRingDepth,
				Tracer:      opts.Obs.Tracer(),
				TraceServer: worldRank,
				Sink: &aggregate.StoreSink{
					Writer:     writer,
					ObjectName: func(e int64) string { return fmt.Sprintf("agg%04d_it%06d.dsf", nodeIdx, e) },
					MemberAttr: "nodes",
					Mode:       "node",
				},
			})
			if err != nil {
				return fail(err)
			}
			sa.global = global
			sa.recvErr = make(chan error, 1)
			go func() {
				sa.recvErr <- aggregate.RunReceiver(fan, ack, sources, global)
			}()
			sink = &aggregate.LocalForward{Global: global, Member: nodeIdx}
		} else {
			sa.fwd = &aggregate.Forwarder{Fan: fan, Ack: ack, Dst: 0, Member: nodeIdx,
				Tracer: opts.Obs.Tracer(), Rank: worldRank}
			sink = sa.fwd
		}
	default: // "core"
		sink = &aggregate.StoreSink{
			Writer:     writer,
			ObjectName: func(e int64) string { return fmt.Sprintf("node%04d_it%06d.dsf", nodeIdx, e) },
			MemberAttr: "servers",
			Mode:       "core",
		}
	}

	agg, err := aggregate.New(aggregate.Config{
		Mode:        cfg.AggregateMode,
		Members:     members,
		RingDepth:   cfg.AggregateRingDepth,
		Tracer:      opts.Obs.Tracer(),
		TraceServer: worldRank,
		Sink:        sink,
	})
	if err != nil {
		return fail(err)
	}
	sa.agg = agg
	sa.memberID = members[0]
	for i := 1; i < servers; i++ {
		nodeComm.Send(clients+i, tagAggr, aggrInitMsg{agg: agg, member: members[i]})
	}
	return sa, nil
}

// closeAggregation tears one server's aggregation state down, after its
// pipeline drained and its member declared done. The leader waits for the
// node aggregator (which waits for every sibling's MemberDone), then the
// aggregator host drains the cross-node receiver and the global tier.
func (sa *serverAgg) close() error {
	var first error
	if sa.leader {
		if err := sa.agg.Close(); err != nil && first == nil {
			first = err
		}
		if sa.recvErr != nil {
			if err := <-sa.recvErr; err != nil && first == nil {
				first = err
			}
		}
		if sa.global != nil {
			if err := sa.global.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
