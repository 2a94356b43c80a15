// Package shm implements the intra-node shared-memory buffer through which
// Damaris clients hand datasets to dedicated cores.
//
// In the paper (§III-B, "Shared-memory"): "A large memory buffer is created
// by the dedicated core at start time, with a size chosen by the user. […]
// When a compute core submits new data, it reserves a segment of this
// buffer, then copies its data using the returned pointer". Two reservation
// algorithms are provided, exactly as in the paper:
//
//   - a mutex-based allocator (the Boost.Interprocess default in the
//     original implementation), here a first-fit free list, and
//   - a lock-free allocator for the case where "all clients are expected to
//     write the same amount of data": the buffer is split in as many parts
//     as clients and each client uses its own region.
//
// Within this reproduction, "shared memory" is process memory shared between
// goroutines that model the cores of one SMP node; the visibility and
// lifetime rules are the same as for a mapped segment.
//
// A mapped segment costs resident memory only for the pages clients touch,
// and flow control keeps clients within a few write phases of its start.
// The first-fit segment models this with parts (WithParts): the first part
// is allocated when the segment is created, every other one by a single
// allocation the first time a reservation lands in it. Capacity is the whole
// size either way; no free span and no block crosses a part start, so a
// block is always one slice of one part. The partitioned allocator's bump
// cursors walk every partition before recycling, so its segment is one part,
// allocated whole.
//
// A reservation returns a Block, a small comparable value: the segment, the
// block's offset and size, and a slot and generation in its allocator's
// generation table. Handles are copied freely (into events, catalog entries)
// and reserving one allocates nothing once the table has grown to the
// number of blocks live at once. The segment resolves Data through the
// handle. A slot's generation is odd while its block is live and moves on
// when the block is released and again when the slot is handed out anew,
// so a handle whose block was released — whether its slot is free or reused
// — is stale: Data returns nil, Release returns ErrStale and frees nothing,
// and Released stays true forever. The zero Block names no block. In a
// race-detector build a release also poisons the block's bytes, so a slice
// taken before the release and read after it no longer holds the data.
package shm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Errors returned by allocators.
var (
	// ErrNoSpace is returned when the segment cannot satisfy a reservation.
	ErrNoSpace = errors.New("shm: not enough free space in segment")
	// ErrClosed is returned after the segment has been closed.
	ErrClosed = errors.New("shm: segment closed")
	// ErrBadSize is returned for non-positive reservation sizes.
	ErrBadSize = errors.New("shm: reservation size must be positive")
	// ErrStale is returned by a release through a handle whose block was
	// already released.
	ErrStale = errors.New("shm: stale block handle")
)

// Block is a handle to a reserved region of a segment. The caller copies
// data into Data() and later releases the block (normally done by the
// dedicated core once the data has been persisted). Within one process the
// segment is named by pointer; a handle carries no other pointer.
type Block struct {
	seg  *Segment
	off  int64
	size int64
	slot uint32 // index into the allocator's generation table
	gen  uint32 // the slot's generation when the block was handed out
}

// live reports whether the handle still names its block.
func (b Block) live() bool {
	return b.seg != nil && b.seg.alloc.gen(b).Load() == b.gen
}

// Data returns the writable byte slice backing the block, or nil when the
// handle is zero or stale.
func (b Block) Data() []byte {
	if !b.live() {
		return nil
	}
	return b.seg.bytes(b.off, b.size)
}

// Size returns the block's size in bytes.
func (b Block) Size() int64 { return b.size }

// Release returns the block to its allocator. Releasing through a stale
// handle — a second release, or one after the slot was handed out again —
// frees nothing and returns ErrStale. Releasing the zero Block does nothing.
func (b Block) Release() error {
	if b.seg == nil {
		return nil
	}
	if !b.seg.alloc.gen(b).CompareAndSwap(b.gen, b.gen+1) {
		return fmt.Errorf("%w: %d bytes at offset %d", ErrStale, b.size, b.off)
	}
	poison(b.seg.bytes(b.off, b.size))
	b.seg.alloc.free(b)
	b.seg.releases.Add(1)
	return nil
}

// Released reports whether the block has been returned to its allocator;
// it stays true after the slot is handed out again. The persistence
// pipeline's durability invariant — no chunk is released before its
// iteration is durably written — is asserted through this.
func (b Block) Released() bool { return b.seg != nil && !b.live() }

// gens is an allocator's table of slot generations. It grows by pages that
// never move, so a handle reads its slot without a lock while the table's
// one grower (the allocator's mutex holder, a partition's owner) appends.
type gens struct {
	pages atomic.Pointer[[]*genPage]
	n     uint32 // slots handed out; read and written by the grower only
}

const genPageSlots = 256

type genPage [genPageSlots]atomic.Uint32

func (g *gens) at(slot uint32) *atomic.Uint32 {
	return &(*g.pages.Load())[slot/genPageSlots][slot%genPageSlots]
}

// add returns a new slot, generation 0 (free).
func (g *gens) add() uint32 {
	if g.n%genPageSlots == 0 {
		var pages []*genPage
		if p := g.pages.Load(); p != nil {
			pages = *p
		}
		pages = append(pages[:len(pages):len(pages)], new(genPage))
		g.pages.Store(&pages)
	}
	g.n++
	return g.n - 1
}

// Allocator is the reservation strategy used by a Segment.
type Allocator interface {
	// reserve claims size bytes for the given client and returns the offset
	// and the generation slot of the block.
	reserve(client int, size int64) (off int64, slot uint32, err error)
	// gen returns the generation of a block's slot.
	gen(b Block) *atomic.Uint32
	// free returns a released block's bytes and slot to the allocator.
	free(b Block)
	// freeBytes reports the bytes currently available (approximate for
	// lock-free allocators).
	freeBytes() int64
	// largest is the size of the largest block the allocator can ever
	// place: a first-fit part or a client's partition.
	largest() int64
}

// Segment is a node-local shared buffer with an allocation strategy.
type Segment struct {
	size      int64
	parts     []part // in offset order, covering [0, size); parts[0] is allocated by NewSegment
	allocated atomic.Int64
	alloc     Allocator
	closed    atomic.Bool
	reserves  atomic.Int64
	releases  atomic.Int64

	mu      sync.Mutex
	waiters []chan struct{}
}

// part is one extent of a segment's bytes; once allocates buf, on the first
// touch.
type part struct {
	off, size int64
	buf       []byte
	once      sync.Once
}

// Option configures segment creation.
type Option func(*options)

type options struct {
	clients  int
	lockfree bool
	parts    []int64
}

// WithParts splits a first-fit segment into parts of the given sizes, in
// offset order and clipped to the segment; whatever they leave of it is one
// last part. The first part is allocated when the segment is created, every
// other one the first time a reservation lands in it. Sizes that are not
// positive are skipped. Without WithParts, or with WithLockFree, the segment
// is one part, allocated whole.
func WithParts(sizes ...int64) Option {
	return func(o *options) { o.parts = sizes }
}

// WithLockFree selects the lock-free partitioned allocator for nclients
// equal-share clients (paper §III-B: used when all clients write the same
// amount of data per iteration).
func WithLockFree(nclients int) Option {
	return func(o *options) {
		o.lockfree = true
		o.clients = nclients
	}
}

// NewSegment creates a shared segment of the given size. By default the
// mutex-based first-fit allocator is used; pass WithLockFree to select the
// partitioned allocator.
func NewSegment(size int64, opts ...Option) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shm: segment size must be positive, got %d", size)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.lockfree {
		o.parts = nil
	}
	s := &Segment{size: size, parts: cut(size, o.parts)}
	if o.lockfree {
		if o.clients <= 0 {
			return nil, fmt.Errorf("shm: lock-free allocator needs at least one client, got %d", o.clients)
		}
		a, err := newPartitionedAllocator(size, o.clients)
		if err != nil {
			return nil, err
		}
		s.alloc = a
	} else {
		s.alloc = newMutexAllocator(s.parts)
	}
	s.bytes(0, 0) // allocates the first part
	return s, nil
}

// cut splits size bytes into parts of the given sizes, clipped to size, and
// one last part for whatever they leave.
func cut(size int64, sizes []int64) []part {
	parts := make([]part, 0, len(sizes)+1)
	var off int64
	for _, n := range sizes {
		if n > 0 && off < size {
			parts = append(parts, part{off: off, size: min(n, size-off)})
			off += parts[len(parts)-1].size
		}
	}
	if off < size {
		parts = append(parts, part{off: off, size: size - off})
	}
	return parts
}

// Size returns the total size of the segment in bytes, allocated or not.
func (s *Segment) Size() int64 { return s.size }

// AllocatedBytes returns the bytes of the parts allocated so far.
func (s *Segment) AllocatedBytes() int64 { return s.allocated.Load() }

// bytes returns the size bytes at off, which lie in one part, allocating
// that part if nothing has touched it yet. A part's allocation is published
// to every reserving goroutine by its once, and to the dedicated core with
// the block it reads.
func (s *Segment) bytes(off, size int64) []byte {
	lo, hi := 0, len(s.parts)-1
	for lo < hi { // the last part starting at or before off
		if m := (lo + hi + 1) / 2; s.parts[m].off <= off {
			lo = m
		} else {
			hi = m - 1
		}
	}
	p := &s.parts[lo]
	p.once.Do(func() {
		p.buf = make([]byte, p.size)
		s.allocated.Add(p.size)
	})
	off -= p.off
	return p.buf[off : off+size : off+size]
}

// FreeBytes returns the bytes currently available for reservation.
func (s *Segment) FreeBytes() int64 { return s.alloc.freeBytes() }

// Reserves returns the total number of successful reservations.
func (s *Segment) Reserves() int64 { return s.reserves.Load() }

// Releases returns the total number of block releases.
func (s *Segment) Releases() int64 { return s.releases.Load() }

// Reserve claims size bytes on behalf of client (the client's node-local
// index; only meaningful for the partitioned allocator). It returns
// ErrNoSpace when the segment is full — callers that prefer to block should
// use ReserveWait.
func (s *Segment) Reserve(client int, size int64) (Block, error) {
	if s.closed.Load() {
		return Block{}, ErrClosed
	}
	if size <= 0 {
		return Block{}, ErrBadSize
	}
	off, slot, err := s.alloc.reserve(client, size)
	if err != nil {
		return Block{}, err
	}
	s.reserves.Add(1)
	s.bytes(off, size) // the first reservation that lands in a part allocates it
	b := Block{seg: s, off: off, size: size, slot: slot}
	b.gen = s.alloc.gen(b).Add(1)
	return b, nil
}

// ReserveWait behaves like Reserve but blocks until space becomes available
// (a block is released) or the segment is closed. This models the client
// stalling when the dedicated core has fallen behind — the paper's
// back-pressure regime when I/O cannot keep up with output frequency.
func (s *Segment) ReserveWait(client int, size int64) (Block, error) {
	for {
		b, err := s.Reserve(client, size)
		if err == nil {
			return b, nil
		}
		if !errors.Is(err, ErrNoSpace) {
			return Block{}, err
		}
		if room := s.alloc.largest(); size > room {
			return Block{}, fmt.Errorf("shm: reservation of %d bytes can never fit the %d-byte region the allocator places blocks in: %w",
				size, room, ErrNoSpace)
		}
		ch := make(chan struct{})
		s.mu.Lock()
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		// Re-check after registering to avoid a lost wakeup.
		if b, err := s.Reserve(client, size); err == nil {
			s.notifyAll()
			return b, nil
		} else if !errors.Is(err, ErrNoSpace) {
			return Block{}, err
		}
		<-ch
		if s.closed.Load() {
			return Block{}, ErrClosed
		}
	}
}

func (s *Segment) notifyAll() {
	s.mu.Lock()
	ws := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// Close marks the segment closed and wakes all waiters. Outstanding blocks
// remain readable; new reservations fail with ErrClosed.
func (s *Segment) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.notifyAll()
	}
}

// hook used by Block.Release to wake ReserveWait callers.
func (s *Segment) blockReleased() { s.notifyAll() }

// ---------------------------------------------------------------------------
// Mutex-based first-fit allocator (Boost-default analogue).

type span struct {
	off, size int64
}

type mutexAllocator struct {
	mu     sync.Mutex
	spans  []span // sorted by offset, coalesced except across a part start
	avail  int64
	starts []int64 // where each part begins; no span and no block crosses one
	big    int64   // the largest part
	gens   gens
	idle   []uint32 // released slots, handed out again first
}

func newMutexAllocator(parts []part) *mutexAllocator {
	a := &mutexAllocator{}
	for i := range parts {
		a.spans = append(a.spans, span{parts[i].off, parts[i].size})
		a.starts = append(a.starts, parts[i].off)
		a.avail += parts[i].size
		a.big = max(a.big, parts[i].size)
	}
	return a
}

func (a *mutexAllocator) largest() int64 { return a.big }

// joins reports whether a free span ending at off may be coalesced with one
// starting there: not across a part start.
func (a *mutexAllocator) joins(off int64) bool {
	_, start := slices.BinarySearch(a.starts, off)
	return !start
}

func (a *mutexAllocator) freeBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.avail
}

func (a *mutexAllocator) gen(b Block) *atomic.Uint32 { return a.gens.at(b.slot) }

func (a *mutexAllocator) reserve(_ int, size int64) (int64, uint32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.spans {
		if a.spans[i].size >= size {
			off := a.spans[i].off
			a.spans[i].off += size
			a.spans[i].size -= size
			if a.spans[i].size == 0 {
				a.spans = append(a.spans[:i], a.spans[i+1:]...)
			}
			a.avail -= size
			if n := len(a.idle); n > 0 {
				slot := a.idle[n-1]
				a.idle = a.idle[:n-1]
				return off, slot, nil
			}
			return off, a.gens.add(), nil
		}
	}
	return 0, 0, ErrNoSpace
}

func (a *mutexAllocator) free(b Block) {
	a.mu.Lock()
	// Insert keeping offset order, then coalesce with neighbours.
	i := 0
	for i < len(a.spans) && a.spans[i].off < b.off {
		i++
	}
	a.spans = append(a.spans, span{})
	copy(a.spans[i+1:], a.spans[i:])
	a.spans[i] = span{b.off, b.size}
	// Coalesce right, then left, never across a part start.
	if i+1 < len(a.spans) && a.spans[i].off+a.spans[i].size == a.spans[i+1].off && a.joins(a.spans[i+1].off) {
		a.spans[i].size += a.spans[i+1].size
		a.spans = append(a.spans[:i+1], a.spans[i+2:]...)
	}
	if i > 0 && a.spans[i-1].off+a.spans[i-1].size == a.spans[i].off && a.joins(a.spans[i].off) {
		a.spans[i-1].size += a.spans[i].size
		a.spans = append(a.spans[:i], a.spans[i+1:]...)
	}
	a.avail += b.size
	a.idle = append(a.idle, b.slot)
	a.mu.Unlock()
	b.seg.blockReleased()
}

// ---------------------------------------------------------------------------
// Lock-free partitioned allocator.
//
// The buffer is split into one fixed region per client; each client bumps a
// private cursor (a bump allocator). The region is recycled — cursor reset to
// zero — on the owner's next reservation once every outstanding block has
// been released by the dedicated core. Contract: reservations for a given
// client index are issued by a single goroutine (one compute core = one
// client), which is exactly the Damaris usage; releases may come from any
// goroutine. A partition's generation slots recycle with it: the k-th block
// since the last reset takes slot k.

type partition struct {
	base, size int64
	cursor     atomic.Int64 // bytes handed out since last reset (owner-written)
	live       atomic.Int64 // outstanding (unreleased) bytes
	next       uint32       // blocks handed out since last reset (owner only)
	gens       gens
}

type partitionedAllocator struct {
	parts []partition
}

func newPartitionedAllocator(size int64, clients int) (*partitionedAllocator, error) {
	per := size / int64(clients)
	if per <= 0 {
		return nil, fmt.Errorf("shm: segment of %d bytes too small for %d client partitions", size, clients)
	}
	a := &partitionedAllocator{parts: make([]partition, clients)}
	for i := range a.parts {
		a.parts[i].base = int64(i) * per
		a.parts[i].size = per
	}
	return a, nil
}

func (a *partitionedAllocator) freeBytes() int64 {
	var total int64
	for i := range a.parts {
		total += a.parts[i].size - a.parts[i].cursor.Load()
	}
	return total
}

func (a *partitionedAllocator) largest() int64 { return a.parts[0].size }

func (a *partitionedAllocator) reserve(client int, size int64) (int64, uint32, error) {
	if client < 0 || client >= len(a.parts) {
		return 0, 0, fmt.Errorf("shm: client %d out of range for %d partitions", client, len(a.parts))
	}
	p := &a.parts[client]
	// Recycle the region if every previously reserved block has been
	// released. Safe without locks: only the owning goroutine reserves from
	// this partition, and live==0 means no release is still pending.
	if p.live.Load() == 0 && p.cursor.Load() != 0 {
		p.cursor.Store(0)
		p.next = 0
	}
	cur := p.cursor.Load()
	if cur+size > p.size {
		return 0, 0, ErrNoSpace
	}
	p.cursor.Store(cur + size)
	p.live.Add(size)
	if p.next == p.gens.n {
		p.gens.add()
	}
	p.next++
	return p.base + cur, p.next - 1, nil
}

// region returns the partition a block lies in.
func (a *partitionedAllocator) region(b Block) *partition {
	return &a.parts[min(int(b.off/a.parts[0].size), len(a.parts)-1)]
}

func (a *partitionedAllocator) gen(b Block) *atomic.Uint32 { return a.region(b).gens.at(b.slot) }

func (a *partitionedAllocator) free(b Block) {
	a.region(b).live.Add(-b.size)
	b.seg.blockReleased()
}
