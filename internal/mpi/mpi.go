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
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// maxUserTag bounds user-supplied tags so that internal collective tags
// never collide with them.
const maxUserTag = 1 << 20

// queue is an unbounded FIFO of payloads used as the mailbox slot for one
// (source, tag) pair. Unbounded buffering gives MPI "eager" semantics and
// keeps pairwise exchange patterns deadlock-free.
type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []any
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m any) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop waits for the next message; once w has aborted, a pop that would wait
// unwinds its rank instead.
func (q *queue) pop(w *World) any {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		if w.aborted.Load() {
			panic(errAborted)
		}
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

	mu      sync.Mutex
	err     error // the first rank failure
	aborted atomic.Bool
}

// errAborted is the panic that unwinds a rank of an aborted world; Run
// reports the failure that aborted it instead.
var errAborted = errors.New("mpi: world aborted by another rank's failure")

// fail records err if it is the world's first failure and then aborts the
// world, waking every rank that waits in a receive.
func (w *World) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.err = err
	w.aborted.Store(true)
	for _, m := range w.mail {
		m.mu.Lock()
		for _, q := range m.queues {
			// A waiter checks the flag under q.mu: taking it orders the flag
			// before the check, or the Wait before the Broadcast. A queue
			// made after this loop sees the flag on its first pop.
			q.mu.Lock()
			q.mu.Unlock()
			q.cond.Broadcast()
		}
		m.mu.Unlock()
	}
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
// communicator, and returns once every rank has returned.
//
// A rank fails by panicking or by calling Abort. The first failure aborts
// the world: every rank that waits in a Recv or a collective of the world,
// then or later, unwinds with an abort error (running its deferred calls),
// and Run returns that first failure. A rank blocked on anything outside
// the world is not woken, and Run waits for it.
func Run(size, coresPerNode int, fn func(*Comm)) error {
	w, err := NewWorld(size, coresPerNode)
	if err != nil {
		return err
	}
	state := &commState{id: w.nextCommID.Add(1), world: w, ranks: identity(size)}
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil && p != errAborted {
					w.fail(fmt.Errorf("mpi: rank %d panicked: %v", rank, p))
				}
			}()
			fn(&Comm{state: state, rank: rank})
		}(r)
	}
	wg.Wait()
	return w.err
}

// Abort fails the calling rank with err, like MPI_Abort: unless another
// rank failed first, Run returns err under the rank's number, and the world
// aborts. The caller unwinds as the world's blocked ranks do.
func (c *Comm) Abort(err error) {
	c.state.world.fail(fmt.Errorf("mpi: rank %d: %w", c.WorldRank(), err))
	panic(errAborted)
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
	opGather
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
	c.state.world.mail[wdst].queue(wsrc, tag).push(payload)
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
	w := c.state.world
	return w.mail[me].queue(wsrc, tag).pop(w)
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
	for r := c.Size() - 1; r > 0; r-- {
		var payload any
		if e := entries[r]; e.color >= 0 {
			payload = [2]any{states[e.color], newRank[r]}
		}
		c.send(r, tag+8, payload)
	}
	if color < 0 {
		return nil
	}
	return &Comm{state: states[color], rank: newRank[0]}
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
