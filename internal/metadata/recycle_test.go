package metadata

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"damaris/internal/shm"
)

// One iteration through the catalog — 64 Puts, TakeIteration, Recycle — must
// not allocate once the per-iteration maps and the taken slice have been
// round the loop: the dedicated core shares its heap with the clients.
func TestPutTakeRecycleDoesNotAllocate(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewSharded(shards)
		entries := make([]*Entry, 64)
		for i := range entries {
			entries[i] = inlineEntry(fmt.Sprintf("var%02d", i/2), 0, i%2, 8)
		}
		it := int64(0)
		iteration := func() {
			it++
			for _, e := range entries {
				e.Key.Iteration = it
				if err := s.Put(e); err != nil {
					t.Fatal(err)
				}
			}
			taken := s.TakeIteration(it)
			if len(taken) != len(entries) {
				t.Fatalf("took %d entries, want %d", len(taken), len(entries))
			}
			s.Recycle(taken)
		}
		iteration()
		iteration()
		if allocs := testing.AllocsPerRun(100, iteration); allocs != 0 {
			t.Errorf("shards=%d: Put x64 + TakeIteration + Recycle allocates %.1f/iteration, budget is 0", shards, allocs)
		}
	}
}

// The same for entries the store owns: Add draws on what Recycle handed back.
func TestAddTakeRecycleDoesNotAllocate(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewSharded(shards)
		names := make([]string, 32)
		for i := range names {
			names[i] = fmt.Sprintf("var%02d", i)
		}
		payload := make([]byte, 8)
		it := int64(0)
		iteration := func() {
			it++
			for i := 0; i < 64; i++ {
				if err := s.Add(Entry{Key: Key{names[i/2], it, i % 2}, Inline: payload}); err != nil {
					t.Fatal(err)
				}
			}
			s.Recycle(s.TakeIteration(it))
		}
		iteration()
		iteration()
		if allocs := testing.AllocsPerRun(100, iteration); allocs != 0 {
			t.Errorf("shards=%d: Add x64 + TakeIteration + Recycle allocates %.1f/iteration, budget is 0", shards, allocs)
		}
	}
}

// TakeIteration's order is the one sort.Slice on (name, source) gave before
// slices.SortFunc replaced it — persistence order, so DSF bytes, unchanged —
// on random sets that repeat names across sources, for any shard count.
func TestTakeIterationOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 1000; round++ {
		s := NewSharded(1 << rng.Intn(4))
		var want []Key
		seen := make(map[Key]bool)
		for n := rng.Intn(48); n > 0; n-- {
			k := Key{Name: fmt.Sprintf("v%d", rng.Intn(6)), Iteration: 7, Source: rng.Intn(12)}
			if seen[k] {
				continue
			}
			seen[k] = true
			want = append(want, k)
			if err := s.Put(&Entry{Key: k, Inline: []byte{1}}); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Name != want[j].Name {
				return want[i].Name < want[j].Name
			}
			return want[i].Source < want[j].Source
		})
		got := keysOf(s.TakeIteration(7))
		if len(got) != len(want) {
			t.Fatalf("round %d: took %d entries, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: order[%d] = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// An entry the store owns is reused only after its iteration's owner handed
// it back: while iteration 1 is taken but not recycled, what a query returned
// for it stays as it was, whatever later iterations catalog; after Recycle
// the same entries carry the next iteration.
func TestOwnedEntriesReusedOnlyAfterRecycle(t *testing.T) {
	s := NewSharded(2)
	add := func(it int64) {
		for src := 0; src < 4; src++ {
			if err := s.Add(Entry{Key: Key{"v", it, src}, Inline: []byte{byte(it)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(1)
	held := s.Iteration(1)
	taken := s.TakeIteration(1)
	add(2)
	for src, e := range held {
		if e.Key != (Key{"v", 1, src}) || e.Inline[0] != 1 {
			t.Fatalf("entry of taken iteration 1 changed before Recycle: %+v", e.Key)
		}
	}
	s.Recycle(taken)
	add(3)
	was := make(map[*Entry]bool)
	for _, e := range held {
		was[e] = true
	}
	for _, e := range s.Iteration(3) {
		if !was[e] {
			t.Errorf("iteration 3's %v is not one of the entries iteration 1 handed back", e.Key)
		}
	}
}

// Overwriting a tuple within one iteration releases the older block exactly
// once, for store-owned entries too, and the survivor's block stays pinned
// until the iteration's owner releases it.
func TestAddOverwriteReleasesOlderBlockOnce(t *testing.T) {
	seg, err := shm.NewSegment(1024)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	k := Key{"v", 1, 0}
	b1, _ := seg.Reserve(0, 256)
	b2, _ := seg.Reserve(0, 256)
	for _, b := range []*shm.Block{b1, b2} {
		if err := s.Add(Entry{Key: k, Block: b}); err != nil {
			t.Fatal(err)
		}
	}
	if !b1.Released() || b2.Released() || seg.FreeBytes() != 1024-256 || s.Len() != 1 {
		t.Fatalf("after overwrite: b1 released=%v b2 released=%v free=%d len=%d",
			b1.Released(), b2.Released(), seg.FreeBytes(), s.Len())
	}
	taken := s.TakeIteration(1)
	if len(taken) != 1 || taken[0].Block != b2 {
		t.Fatalf("took %d entries, want the overwriting one", len(taken))
	}
	taken[0].Release()
	s.Recycle(taken)
	if seg.FreeBytes() != 1024 {
		t.Errorf("free = %d after release, want 1024 (each block released once)", seg.FreeBytes())
	}
}

// The event loops Add and take while the persist writers hand earlier
// iterations back: an entry may be on its way into a new iteration the moment
// Recycle lets go of it. Run under -race.
func TestRecycleConcurrentWithAdd(t *testing.T) {
	s := NewSharded(4)
	taken := make(chan []*Entry, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for es := range taken {
			s.Recycle(es)
		}
	}()
	for it := int64(0); it < 2000; it++ {
		for src := 0; src < 16; src++ {
			if err := s.Add(Entry{Key: Key{"v", it, src}, Inline: []byte{byte(src)}}); err != nil {
				t.Fatal(err)
			}
		}
		es := s.TakeIteration(it)
		for src, e := range es {
			if e.Key != (Key{"v", it, src}) || e.Inline[0] != byte(src) {
				t.Fatalf("iteration %d: entry %d reads %v", it, src, e.Key)
			}
		}
		taken <- es
	}
	close(taken)
	<-done
}
