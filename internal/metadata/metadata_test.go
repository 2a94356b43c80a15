package metadata

import (
	"errors"
	"testing"
	"testing/quick"

	"damaris/internal/layout"
	"damaris/internal/shm"
)

func inlineEntry(name string, it int64, src int, n int) *Entry {
	return &Entry{
		Key:    Key{Name: name, Iteration: it, Source: src},
		Layout: layout.MustNew(layout.Byte, int64(n)),
		Inline: make([]byte, n),
	}
}

// Len returns the number of catalogued entries: the tests count them, no
// caller outside them does.
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

func TestPutGet(t *testing.T) {
	s := NewSharded(1)
	e := inlineEntry("temp", 3, 7, 16)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(Key{"temp", 3, 7})
	if !ok || got != e {
		t.Fatal("Get did not return the entry")
	}
	if _, ok := s.Get(Key{"temp", 3, 8}); ok {
		t.Error("Get of absent tuple should fail")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPutValidation(t *testing.T) {
	s := NewSharded(1)
	if err := s.Put(nil); err == nil {
		t.Error("nil entry should fail")
	}
	if err := s.Put(&Entry{Key: Key{Name: ""}}); err == nil {
		t.Error("empty name should fail")
	}
	if err := s.Put(&Entry{Key: Key{Name: "x"}}); err == nil {
		t.Error("dataless entry should fail")
	}
}

func TestPutReplacesAndReleases(t *testing.T) {
	seg, err := shm.NewSegment(1024)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := seg.Reserve(0, 256)
	s := NewSharded(1)
	k := Key{"v", 1, 0}
	if err := s.Put(&Entry{Key: k, Block: b1}); err != nil {
		t.Fatal(err)
	}
	b2, _ := seg.Reserve(0, 256)
	if err := s.Put(&Entry{Key: k, Block: b2}); err != nil {
		t.Fatal(err)
	}
	// Replacing must have released b1.
	if seg.FreeBytes() != 1024-256 {
		t.Errorf("free = %d, want %d (old block released)", seg.FreeBytes(), 1024-256)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after replace", s.Len())
	}
}

func TestIterationQuerySorted(t *testing.T) {
	s := NewSharded(1)
	_ = s.Put(inlineEntry("u", 5, 2, 8))
	_ = s.Put(inlineEntry("u", 5, 0, 8))
	_ = s.Put(inlineEntry("theta", 5, 1, 8))
	_ = s.Put(inlineEntry("u", 6, 0, 8))
	got := s.Iteration(5)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantOrder := []Key{{"theta", 5, 1}, {"u", 5, 0}, {"u", 5, 2}}
	for i, w := range wantOrder {
		if got[i].Key != w {
			t.Errorf("order[%d] = %v, want %v", i, got[i].Key, w)
		}
	}
}

func TestIterationsAndTotalBytes(t *testing.T) {
	s := NewSharded(1)
	_ = s.Put(inlineEntry("a", 3, 0, 10))
	_ = s.Put(inlineEntry("b", 1, 0, 20))
	_ = s.Put(inlineEntry("c", 3, 1, 30))
	its := s.Iterations()
	if len(its) != 2 || its[0] != 1 || its[1] != 3 {
		t.Errorf("Iterations = %v", its)
	}
	if got := totalBytes(s, 3); got != 40 {
		t.Errorf("bytes of iteration 3 = %d", got)
	}
	if got := totalBytes(s, 99); got != 0 {
		t.Errorf("bytes of iteration 99 = %d", got)
	}
}

// totalBytes sums the payload sizes of one iteration's entries.
func totalBytes(s *Store, it int64) int64 {
	var total int64
	for _, e := range s.Iteration(it) {
		total += e.Size()
	}
	return total
}

func TestEntryBytes(t *testing.T) {
	seg, _ := shm.NewSegment(64)
	b, _ := seg.Reserve(0, 16)
	copy(b.Data(), "hello world 1234")
	e := &Entry{Key: Key{"v", 0, 0}, Block: b}
	if string(e.Bytes()) != "hello world 1234" {
		t.Error("Bytes via block wrong")
	}
	if e.Size() != 16 {
		t.Errorf("Size = %d", e.Size())
	}
	ie := inlineEntry("w", 0, 0, 4)
	copy(ie.Inline, "abcd")
	if string(ie.Bytes()) != "abcd" {
		t.Error("Bytes via inline wrong")
	}
}

// Property: after Putting any set of distinct tuples, Iteration(i) returns
// exactly the tuples of iteration i and TakeIteration removes exactly those.
func TestQuickIterationPartition(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewSharded(1)
		put := make(map[Key]bool)
		for i, r := range raw {
			k := Key{Name: "v", Iteration: int64(r % 4), Source: i}
			_ = s.Put(&Entry{Key: k, Inline: []byte{1}})
			put[k] = true
		}
		for it := int64(0); it < 4; it++ {
			want := 0
			for k := range put {
				if k.Iteration == it {
					want++
				}
			}
			if len(s.Iteration(it)) != want {
				return false
			}
		}
		n := len(s.TakeIteration(2))
		want2 := 0
		for k := range put {
			if k.Iteration == 2 {
				want2++
			}
		}
		return n == want2 && len(s.Iteration(2)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTakeIterationTransfersOwnership(t *testing.T) {
	s := NewSharded(1)
	seg, err := shm.NewSegment(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []shm.Block
	for src := 0; src < 3; src++ {
		blk, err := seg.Reserve(0, 16)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
		if err := s.Put(&Entry{Key: Key{Name: "v", Iteration: 5, Source: src}, Block: blk}); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Put(&Entry{Key: Key{Name: "v", Iteration: 6, Source: 0}, Inline: []byte{1}})

	taken := s.TakeIteration(5)
	if len(taken) != 3 {
		t.Fatalf("taken = %d entries, want 3", len(taken))
	}
	// Sorted by (name, source), like Iteration.
	for i, e := range taken {
		if e.Key.Source != i {
			t.Errorf("taken[%d].Source = %d, want %d", i, e.Key.Source, i)
		}
	}
	// Gone from the catalog, other iterations untouched.
	if len(s.Iteration(5)) != 0 || s.Len() != 1 {
		t.Errorf("store after take: it5=%d len=%d", len(s.Iteration(5)), s.Len())
	}
	// Crucially: the shared-memory blocks are NOT released — ownership
	// moved to the caller (the persistence pipeline).
	for i, blk := range blocks {
		if blk.Released() {
			t.Errorf("block %d released by TakeIteration", i)
		}
	}
	for _, e := range taken {
		e.Release()
	}
	for i, blk := range blocks {
		if !blk.Released() {
			t.Errorf("block %d not released by Entry.Release", i)
		}
	}
	// Releasing again frees nothing and says so.
	if err := taken[0].Release(); !errors.Is(err, shm.ErrStale) {
		t.Errorf("second release: %v, want shm.ErrStale", err)
	}
	if got := s.TakeIteration(99); len(got) != 0 {
		t.Errorf("TakeIteration of empty iteration = %v", got)
	}
}
