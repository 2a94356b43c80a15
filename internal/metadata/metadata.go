// Package metadata implements the dedicated core's in-memory catalog of
// incoming datasets.
//
// Paper §III-B, "Metadata management": every variable written by a client is
// characterized by a tuple ⟨name, iteration, source, layout⟩. "Upon reception
// of a write-notification, the EPE will add an entry in a metadata structure
// associating the tuple with the received data. The data stay in shared
// memory until actions are performed on them." This catalog is that
// structure: it maps tuples to data handles, answers per-iteration and
// per-variable queries for actions (persist, compress, statistics), and
// releases shared-memory blocks once an iteration is flushed.
//
// The catalog is internally sharded: tuples hash by (variable name, source
// rank) onto a power-of-two number of shards, each with its own lock and its
// own per-iteration and per-variable indexes. NewStore builds a single-shard
// catalog (exactly the historical behavior); NewSharded spreads the same API
// over N shards so concurrent event-loop shards do not serialize on one
// mutex. Every cross-shard query merges per-shard results in the same
// deterministic (name, source) order as before, so persistence output is
// byte-identical for any shard count.
package metadata

import (
	"fmt"
	"math/bits"
	"sort"
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
type Entry struct {
	Key    Key
	Layout layout.Layout
	Block  *shm.Block   // shared-memory handle (nil if inline)
	Inline []byte       // inline payload (nil if in shared memory)
	Global layout.Block // position of this piece in the global domain (optional)
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

// release frees the shared-memory block, if any.
func (e *Entry) release() {
	if e.Block != nil {
		e.Block.Release()
		e.Block = nil
	}
}

// Release frees the entry's shared-memory block, if any. It is called by
// owners of entries obtained from TakeIteration — the persistence pipeline —
// once the entry has been durably written (or its write definitively
// failed). Releasing twice is a no-op.
func (e *Entry) Release() { e.release() }

// storeShard is one lock domain of the catalog. Entries are indexed twice:
// by iteration (the flush path: TakeIteration, TotalBytes, Iteration) and by
// variable name (the query path: Variable), so neither walks unrelated
// entries.
type storeShard struct {
	mu     sync.RWMutex
	byIter map[int64]map[Key]*Entry
	byName map[string]map[Key]*Entry
	count  int
}

// Store is a thread-safe tuple catalog. The zero value is not usable; use
// NewStore or NewSharded.
type Store struct {
	shards []storeShard
	mask   uint32
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
		s.shards[i].byName = make(map[string]map[Key]*Entry)
	}
	return s
}

// ShardCount reports the number of lock shards.
func (s *Store) ShardCount() int { return len(s.shards) }

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

// Put registers an entry. Re-writing an existing tuple replaces the previous
// entry and releases its shared-memory block (a client overwriting the same
// variable within one iteration). The last Put wins: one tuple's writes come
// from one client, whose events one shard loop applies in push order.
func (s *Store) Put(e *Entry) error {
	if e == nil {
		return fmt.Errorf("metadata: nil entry")
	}
	if e.Key.Name == "" {
		return fmt.Errorf("metadata: entry with empty variable name")
	}
	if e.Block == nil && e.Inline == nil {
		return fmt.Errorf("metadata: entry %v carries no data", e.Key)
	}
	sh := s.shardFor(e.Key.Name, e.Key.Source)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.byIter[e.Key.Iteration][e.Key]; ok {
		old.release()
		sh.count--
	}
	im := sh.byIter[e.Key.Iteration]
	if im == nil {
		im = make(map[Key]*Entry)
		sh.byIter[e.Key.Iteration] = im
	}
	im[e.Key] = e
	nm := sh.byName[e.Key.Name]
	if nm == nil {
		nm = make(map[Key]*Entry)
		sh.byName[e.Key.Name] = nm
	}
	nm[e.Key] = e
	sh.count++
	return nil
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
		n += sh.count
		sh.mu.RUnlock()
	}
	return n
}

// Iteration returns all entries of one iteration, sorted by (name, source)
// for deterministic persistence order.
func (s *Store) Iteration(it int64) []*Entry {
	var out []*Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.byIter[it] {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sortEntries(out)
	return out
}

// Variable returns all entries of one variable across iterations and
// sources, sorted by (iteration, source).
func (s *Store) Variable(name string) []*Entry {
	var out []*Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.byName[name] {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Iteration != out[j].Key.Iteration {
			return out[i].Key.Iteration < out[j].Key.Iteration
		}
		return out[i].Key.Source < out[j].Key.Source
	})
	return out
}

// Iterations lists the distinct iterations present, ascending.
func (s *Store) Iterations() []int64 {
	seen := make(map[int64]bool)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for it, m := range sh.byIter {
			if len(m) > 0 {
				seen[it] = true
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]int64, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalBytes sums the payload sizes of all entries of one iteration.
func (s *Store) TotalBytes(it int64) int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.byIter[it] {
			total += e.Size()
		}
		sh.mu.RUnlock()
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
// shard count.
func (s *Store) TakeIteration(it int64) []*Entry {
	var out []*Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.byIter[it] {
			out = append(out, e)
			sh.removeLocked(k, it)
		}
		delete(sh.byIter, it)
		sh.mu.Unlock()
	}
	sortEntries(out)
	return out
}

// DropIteration removes all entries of an iteration, releasing their
// shared-memory blocks, and returns how many entries were dropped. Called
// after the iteration has been persisted.
func (s *Store) DropIteration(it int64) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.byIter[it] {
			e.release()
			sh.removeLocked(k, it)
			n++
		}
		delete(sh.byIter, it)
		sh.mu.Unlock()
	}
	return n
}

// Clear removes everything, releasing all shared-memory blocks.
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, m := range sh.byIter {
			for _, e := range m {
				e.release()
			}
		}
		sh.byIter = make(map[int64]map[Key]*Entry)
		sh.byName = make(map[string]map[Key]*Entry)
		sh.count = 0
		sh.mu.Unlock()
	}
}

// removeLocked unindexes one key (byName side plus bookkeeping); the caller
// deletes the byIter map wholesale and must hold sh.mu.
func (sh *storeShard) removeLocked(k Key, it int64) {
	if nm, ok := sh.byName[k.Name]; ok {
		delete(nm, k)
		if len(nm) == 0 {
			delete(sh.byName, k.Name)
		}
	}
	sh.count--
}

func sortEntries(es []*Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Key.Name != es[j].Key.Name {
			return es[i].Key.Name < es[j].Key.Name
		}
		return es[i].Key.Source < es[j].Key.Source
	})
}
