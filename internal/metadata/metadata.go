// Package metadata implements the dedicated core's in-memory catalog of
// incoming datasets.
//
// Paper §III-B, "Metadata management": every variable written by a client is
// characterized by a tuple ⟨name, iteration, source, layout⟩. "Upon reception
// of a write-notification, the EPE will add an entry in a metadata structure
// associating the tuple with the received data. The data stay in shared
// memory until actions are performed on them." This catalog is that
// structure: it maps tuples to data handles, answers per-iteration queries
// for actions (persist, compress, statistics), and releases shared-memory
// blocks once an iteration is flushed.
//
// The catalog is internally sharded: tuples hash by (variable name, source
// rank) onto a power-of-two number of shards, each with its own lock and its
// own per-iteration index, so concurrent event-loop shards do not serialize
// on one mutex. Every cross-shard query merges per-shard results in (name,
// source) order, so persistence output is byte-identical for any shard count.
//
// Steady state allocates nothing: a shard's per-iteration map is reused once
// its iteration is taken or dropped, the entries Add catalogs and the slice
// TakeIteration fills once the iteration's owner hands them back (Recycle).
package metadata

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"damaris/internal/layout"
	"damaris/internal/shm"
)

// Key identifies one written dataset instance.
type Key struct {
	Name      string // variable name
	Iteration int64  // simulation step
	Source    int    // writer identity (MPI rank)
}

// Entry associates a Key with its layout and data. Data is normally a
// shared-memory block; entries carrying an inline copy (e.g. after a
// transformation) have Block nil and Inline non-nil.
//
// Who may hold an *Entry, and until when: one the caller allocated and Put is
// the caller's for good. One catalogued by Add belongs to the store and is
// reused: queries (Get, Iteration — what plugin actions see) may use it only
// while its iteration is still catalogued, and whoever took the iteration
// with TakeIteration may use it until it calls Recycle.
type Entry struct {
	Key    Key
	Layout layout.Layout
	Block  *shm.Block   // shared-memory handle (nil if inline)
	Inline []byte       // inline payload (nil if in shared memory)
	Global layout.Block // position of this piece in the global domain (optional)

	home *storeShard // the shard that reuses this entry; nil when the caller allocated it
}

// Bytes returns the dataset payload regardless of where it lives.
func (e *Entry) Bytes() []byte {
	if e.Block != nil {
		return e.Block.Data()
	}
	return e.Inline
}

// Size returns the payload size in bytes.
func (e *Entry) Size() int64 { return int64(len(e.Bytes())) }

// Release frees the entry's shared-memory block, if any. It is called by
// owners of entries obtained from TakeIteration — the persistence pipeline —
// once the entry has been durably written (or its write definitively
// failed). Releasing twice is a no-op.
func (e *Entry) Release() {
	if e.Block != nil {
		e.Block.Release()
		e.Block = nil
	}
}

// check rejects entries the catalog cannot hold.
func (e *Entry) check() error {
	if e.Key.Name == "" {
		return fmt.Errorf("metadata: entry with empty variable name")
	}
	if e.Block == nil && e.Inline == nil {
		return fmt.Errorf("metadata: entry %v carries no data", e.Key)
	}
	return nil
}

// storeShard is one lock domain of the catalog, indexed by iteration (the
// flush path: TakeIteration, TotalBytes, Iteration), so no query walks
// unrelated entries.
type storeShard struct {
	mu     sync.RWMutex
	byIter map[int64]map[Key]*Entry
	idle   []map[Key]*Entry // emptied iteration maps: grown once per run, not once per iteration
	spare  []*Entry         // entries this shard owns, handed back through Recycle, for Add
}

// slabEntries is how many entries a shard allocates at once when Add finds
// none to reuse.
const slabEntries = 32

// Store is a thread-safe tuple catalog. The zero value is not usable; use
// NewStore or NewSharded.
type Store struct {
	shards []storeShard
	mask   uint32

	takenMu sync.Mutex
	taken   [][]*Entry // slices handed back through Recycle, for TakeIteration to fill
}

// NewStore creates an empty single-shard catalog.
func NewStore() *Store { return NewSharded(1) }

// NewSharded creates an empty catalog spread over n lock shards; n is
// rounded up to the next power of two (minimum 1).
func NewSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].byIter = make(map[int64]map[Key]*Entry)
	}
	return s
}

// shardFor routes a tuple to its shard: FNV-1a over the variable name mixed
// with the source rank. Allocation-free.
func (s *Store) shardFor(name string, source int) *storeShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	h ^= uint32(source)
	h *= prime32
	return &s.shards[h&s.mask]
}

// Put registers an entry the caller allocated and keeps owning. Re-writing an
// existing tuple replaces the previous entry and releases its shared-memory
// block (a client overwriting the same variable within one iteration). The
// last Put wins: one tuple's writes come from one client, whose events one
// shard loop applies in push order.
func (s *Store) Put(e *Entry) error {
	if e == nil {
		return fmt.Errorf("metadata: nil entry")
	}
	if err := e.check(); err != nil {
		return err
	}
	e.home = nil
	sh := s.shardFor(e.Key.Name, e.Key.Source)
	sh.mu.Lock()
	sh.insert(e)
	sh.mu.Unlock()
	return nil
}

// Add is Put for the event path: it catalogs a copy of e in an entry the
// store owns — one Recycle handed back, else one of a fresh slab — so a write
// notification allocates nothing in steady state. See Entry for how long the
// catalogued entry may be held.
func (s *Store) Add(e Entry) error {
	if err := e.check(); err != nil {
		return err
	}
	sh := s.shardFor(e.Key.Name, e.Key.Source)
	sh.mu.Lock()
	if len(sh.spare) == 0 {
		slab := make([]Entry, slabEntries)
		for i := range slab {
			sh.spare = append(sh.spare, &slab[i])
		}
	}
	owned := sh.spare[len(sh.spare)-1]
	sh.spare = sh.spare[:len(sh.spare)-1]
	*owned = e
	owned.home = sh
	sh.insert(owned)
	sh.mu.Unlock()
	return nil
}

// insert catalogs e under its iteration, replacing — and releasing the block
// of — an entry already there under the same tuple. The replaced entry is
// left to the collector, not reused: a query may still hold it. The caller
// holds sh.mu.
func (sh *storeShard) insert(e *Entry) {
	m := sh.byIter[e.Key.Iteration]
	if m == nil {
		if n := len(sh.idle); n > 0 {
			m, sh.idle = sh.idle[n-1], sh.idle[:n-1]
		} else {
			m = make(map[Key]*Entry)
		}
		sh.byIter[e.Key.Iteration] = m
	}
	if old, ok := m[e.Key]; ok {
		old.Release()
	}
	m[e.Key] = e
}

// Get returns the entry for a tuple.
func (s *Store) Get(k Key) (*Entry, bool) {
	sh := s.shardFor(k.Name, k.Source)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.byIter[k.Iteration][k]
	return e, ok
}

// Len returns the number of catalogued entries.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, m := range sh.byIter {
			n += len(m)
		}
		sh.mu.RUnlock()
	}
	return n
}

// gather appends one iteration's entries on every shard to out; with take it
// also uncatalogs them, keeping each shard's emptied map for a later
// iteration.
func (s *Store) gather(it int64, out []*Entry, take bool) []*Entry {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		m := sh.byIter[it]
		for _, e := range m {
			out = append(out, e)
		}
		if take && m != nil {
			delete(sh.byIter, it)
			clear(m)
			sh.idle = append(sh.idle, m)
		}
		sh.mu.Unlock()
	}
	return out
}

// Iteration returns all entries of one iteration, sorted by (name, source)
// for deterministic persistence order.
func (s *Store) Iteration(it int64) []*Entry {
	out := s.gather(it, nil, false)
	sortEntries(out)
	return out
}

// Iterations lists the distinct iterations present, ascending.
func (s *Store) Iterations() []int64 {
	var out []int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for it := range sh.byIter {
			out = append(out, it)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TotalBytes sums the payload sizes of all entries of one iteration.
func (s *Store) TotalBytes(it int64) int64 {
	var total int64
	for _, e := range s.gather(it, nil, false) {
		total += e.Size()
	}
	return total
}

// TakeIteration removes and returns all entries of an iteration WITHOUT
// releasing their shared-memory blocks: ownership transfers to the caller,
// which must call Release on every entry once it is durably persisted.
// This is the hand-off point between the dedicated core's event loop and
// the write-behind pipeline — the data must stay pinned in shared memory
// until a writer has made it durable. Entries are sorted by (name, source)
// like Iteration; the merge across shards lands in the same order for any
// shard count. A caller that is done with the slice and its entries may hand
// them back through Recycle; one that never does simply keeps them.
func (s *Store) TakeIteration(it int64) []*Entry {
	var out []*Entry
	s.takenMu.Lock()
	if n := len(s.taken); n > 0 {
		out, s.taken = s.taken[n-1], s.taken[:n-1]
	}
	s.takenMu.Unlock()
	out = s.gather(it, out, true)
	sortEntries(out)
	return out
}

// Recycle hands back what TakeIteration returned, once the caller has
// released the entries and holds no other reference to them or to the slice:
// the entries Add catalogued and the slice itself are reused by later
// iterations. Entries the caller Put are only dropped from the slice.
func (s *Store) Recycle(entries []*Entry) {
	if cap(entries) == 0 {
		return
	}
	for _, e := range entries {
		// Not touched again once its shard has it: Add may reuse it at once.
		if sh := e.home; sh != nil {
			*e = Entry{}
			sh.mu.Lock()
			sh.spare = append(sh.spare, e)
			sh.mu.Unlock()
		}
	}
	clear(entries)
	s.takenMu.Lock()
	s.taken = append(s.taken, entries[:0])
	s.takenMu.Unlock()
}

// DropIteration removes all entries of an iteration, releasing their
// shared-memory blocks, and returns how many entries were dropped.
func (s *Store) DropIteration(it int64) int {
	entries := s.TakeIteration(it)
	n := len(entries)
	for _, e := range entries {
		e.Release()
	}
	s.Recycle(entries)
	return n
}

// Clear removes everything, releasing all shared-memory blocks.
func (s *Store) Clear() {
	for _, it := range s.Iterations() {
		s.DropIteration(it)
	}
}

func sortEntries(es []*Entry) {
	slices.SortFunc(es, func(a, b *Entry) int {
		return cmp.Or(strings.Compare(a.Key.Name, b.Key.Name), cmp.Compare(a.Key.Source, b.Key.Source))
	})
}
