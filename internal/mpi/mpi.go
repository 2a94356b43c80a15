// Package mpi is an in-process, MPI-like message-passing runtime built on
// goroutines and channels.
//
// The original Damaris runs on MPI; Go has no mature MPI bindings, so this
// package provides the subset Damaris and the CM1 mini-app need: ranks,
// tagged point-to-point messages with per-pair ordering (MPI's
// non-overtaking rule), the usual collectives implemented with binomial-tree
// and dissemination algorithms, communicator splitting, and an SMP node
// topology so that "one dedicated core per node" is a meaningful placement.
//
// Each rank is a goroutine; a "node" is a group of coresPerNode consecutive
// ranks sharing a memory domain, exactly like the paper's multicore SMP
// nodes. Message payloads are arbitrary values; passing []byte models real
// data movement, while in-process pointers (e.g. a node's shared segment)
// model shared memory.
package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// maxUserTag bounds user-supplied tags so that internal collective tags
// never collide with them.
const maxUserTag = 1 << 20

// message is one queued point-to-point payload.
type message struct {
	payload any
}

// queue is an unbounded FIFO used as the mailbox slot for one
// (source, tag) pair. Unbounded buffering gives MPI "eager" semantics and
// keeps pairwise exchange patterns deadlock-free.
type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []message
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m message) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *queue) pop() message {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m
}

// mailbox holds all incoming queues of one rank, keyed by (source, tag).
type mailbox struct {
	mu     sync.Mutex
	queues map[msgKey]*queue
}

type msgKey struct {
	src int
	tag int64
}

func newMailbox() *mailbox {
	return &mailbox{queues: make(map[msgKey]*queue)}
}

func (m *mailbox) queue(src int, tag int64) *queue {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := msgKey{src, tag}
	q, ok := m.queues[k]
	if !ok {
		q = newQueue()
		m.queues[k] = q
	}
	return q
}

// World is the global runtime shared by all ranks: mailboxes and topology.
type World struct {
	size         int
	coresPerNode int
	mail         []*mailbox
	nextCommID   atomic.Int64
}

// NewWorld creates a runtime for size ranks grouped into SMP nodes of
// coresPerNode consecutive ranks. size must be a positive multiple of
// coresPerNode.
func NewWorld(size, coresPerNode int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("mpi: coresPerNode must be positive, got %d", coresPerNode)
	}
	if size%coresPerNode != 0 {
		return nil, fmt.Errorf("mpi: world size %d not a multiple of coresPerNode %d", size, coresPerNode)
	}
	w := &World{size: size, coresPerNode: coresPerNode}
	w.mail = make([]*mailbox, size)
	for i := range w.mail {
		w.mail[i] = newMailbox()
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// CoresPerNode returns the SMP node width.
func (w *World) CoresPerNode() int { return w.coresPerNode }

// Nodes returns the number of SMP nodes.
func (w *World) Nodes() int { return w.size / w.coresPerNode }

// NodeOf returns the node index hosting a world rank.
func (w *World) NodeOf(rank int) int { return rank / w.coresPerNode }

// commState is the shared identity of a communicator group: the world ranks
// of its members, in comm-rank order.
type commState struct {
	id    int64
	world *World
	ranks []int // ranks[commRank] = worldRank
}

// Comm is one rank's handle on a communicator. Handles are not safe for
// concurrent use by multiple goroutines (matching MPI semantics where a rank
// is single-threaded with respect to one communicator).
type Comm struct {
	state *commState
	rank  int // rank within this communicator
	seq   int // collective sequence number (rank-local, lockstep by MPI rules)
}

// Run creates a world of size ranks on nodes of coresPerNode cores and runs
// fn once per rank, each on its own goroutine, passing the rank's world
// communicator. It returns when every rank finishes; a panic in any rank is
// captured and returned as an error (after all surviving ranks finish or
// deadlock is avoided by the panicking rank's absence being tolerated).
func Run(size, coresPerNode int, fn func(*Comm)) error {
	w, err := NewWorld(size, coresPerNode)
	if err != nil {
		return err
	}
	state := &commState{id: w.nextCommID.Add(1), world: w, ranks: identity(size)}
	var wg sync.WaitGroup
	panics := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			fn(&Comm{state: state, rank: rank})
		}(r)
	}
	wg.Wait()
	select {
	case err := <-panics:
		return err
	default:
		return nil
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.state.ranks) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.state.ranks[c.rank] }

// WorldRankOf translates a rank of this communicator into its world rank
// (MPI_Group_translate_ranks against the world group). It is how a rank
// names a peer globally — e.g. an aggregation leader recording which
// dedicated cores contributed to a merged object.
func (c *Comm) WorldRankOf(rank int) int {
	if rank < 0 || rank >= c.Size() {
		panic(fmt.Sprintf("mpi: WorldRankOf rank %d outside communicator of size %d", rank, c.Size()))
	}
	return c.state.ranks[rank]
}

// Node returns the SMP node index of the caller.
func (c *Comm) Node() int { return c.state.world.NodeOf(c.WorldRank()) }

// encodeTag maps a (comm, user tag) pair into the global tag space so
// messages on different communicators never match each other.
func (c *Comm) encodeTag(tag int) int64 {
	if tag < 0 || tag >= maxUserTag {
		panic(fmt.Sprintf("mpi: user tag %d out of range [0,%d)", tag, maxUserTag))
	}
	return c.state.id*(maxUserTag<<4) + int64(tag)
}

// internalTag returns a tag in the collective-reserved space for the comm.
const (
	opBarrier = iota + 1
	opBcast
	opReduce
	opGather
	opScatter
	opAlltoall
	opSplit
)

func (c *Comm) internalTag(op, seq int) int64 {
	return c.state.id*(maxUserTag<<4) + maxUserTag + int64(seq)*16 + int64(op)
}

// Send delivers payload to dst (a rank in this communicator) under tag.
// Sends are buffered ("eager"): Send never blocks.
func (c *Comm) Send(dst, tag int, payload any) {
	c.send(dst, c.encodeTag(tag), payload)
}

func (c *Comm) send(dst int, tag int64, payload any) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: Send to rank %d outside communicator of size %d", dst, c.Size()))
	}
	wdst := c.state.ranks[dst]
	wsrc := c.WorldRank()
	c.state.world.mail[wdst].queue(wsrc, tag).push(message{payload: payload})
}

// Recv blocks until a message from src under tag arrives and returns its
// payload. Messages from the same (src, tag) arrive in send order.
func (c *Comm) Recv(src, tag int) any {
	return c.recv(src, c.encodeTag(tag))
}

func (c *Comm) recv(src int, tag int64) any {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: Recv from rank %d outside communicator of size %d", src, c.Size()))
	}
	wsrc := c.state.ranks[src]
	me := c.WorldRank()
	return c.state.world.mail[me].queue(wsrc, tag).pop().payload
}

// Split partitions the communicator by color, ordering ranks in each new
// group by (key, old rank), like MPI_Comm_split. Every rank of the
// communicator must call Split; each receives its handle on the new
// communicator. A negative color returns nil (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	seq := c.nextSeq()
	tag := c.internalTag(opSplit, seq)
	if c.rank != 0 {
		c.send(0, tag, entry{color, key, c.rank})
		res := c.recv(0, tag+8) // +8: reply channel within reserved op space
		if res == nil {
			return nil
		}
		pair := res.([2]any)
		return &Comm{state: pair[0].(*commState), rank: pair[1].(int)}
	}
	entries := make([]entry, c.Size())
	entries[0] = entry{color, key, 0}
	for r := 1; r < c.Size(); r++ {
		entries[r] = c.recv(r, tag).(entry)
	}
	// Group by color.
	byColor := make(map[int][]entry)
	for _, e := range entries {
		if e.color >= 0 {
			byColor[e.color] = append(byColor[e.color], e)
		}
	}
	states := make(map[int]*commState)
	newRank := make(map[int]int) // old rank -> rank in new comm
	for color, group := range byColor {
		sort.Slice(group, func(i, j int) bool {
			if group[i].key != group[j].key {
				return group[i].key < group[j].key
			}
			return group[i].rank < group[j].rank
		})
		ranks := make([]int, len(group))
		for i, e := range group {
			ranks[i] = c.state.ranks[e.rank]
			newRank[e.rank] = i
		}
		states[color] = &commState{
			id:    c.state.world.nextCommID.Add(1),
			world: c.state.world,
			ranks: ranks,
		}
	}
	var mine *Comm
	for r := c.Size() - 1; r >= 0; r-- {
		e := entries[r]
		var payload any
		if e.color >= 0 {
			payload = [2]any{states[e.color], newRank[r]}
		}
		if r == 0 {
			if payload == nil {
				mine = nil
			} else {
				pair := payload.([2]any)
				mine = &Comm{state: pair[0].(*commState), rank: pair[1].(int)}
			}
		} else {
			c.send(r, tag+8, payload)
		}
	}
	return mine
}

// SplitByNode returns a communicator containing only the ranks of the
// caller's SMP node, ordered by world rank. This is the intra-node
// communicator Damaris uses to pair clients with their dedicated core.
func (c *Comm) SplitByNode() *Comm {
	return c.Split(c.Node(), c.WorldRank())
}

// nextSeq advances the collective sequence number. MPI requires every rank
// of a communicator to invoke collectives in the same order, so rank-local
// counters advance in lockstep and assign matching tags without any
// coordination.
func (c *Comm) nextSeq() int {
	c.seq++
	return c.seq
}
