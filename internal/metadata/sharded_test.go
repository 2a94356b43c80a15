package metadata

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestNewShardedRoundsToPowerOfTwo(t *testing.T) {
	cases := map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16}
	for in, want := range cases {
		if got := len(NewSharded(in).shards); got != want {
			t.Errorf("NewSharded(%d) has %d shards, want %d", in, got, want)
		}
	}
}

// fillStore puts the same deterministic population into a store: several
// variables x sources x iterations, enough to spread over every shard.
func fillStore(t *testing.T, s *Store) {
	t.Helper()
	for _, name := range []string{"temperature", "pressure", "u", "v", "w", "qv"} {
		for src := 0; src < 8; src++ {
			for it := int64(0); it < 4; it++ {
				if err := s.Put(inlineEntry(name, it, src, 8)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// keysOf projects entries to their keys (entries are distinct objects per
// store, so identity comparison is useless across stores).
func keysOf(entries []*Entry) []Key {
	out := make([]Key, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

func TestShardedQueriesMatchSingleShard(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			// TakeIteration consumes, so each subtest gets its own reference.
			ref := NewSharded(1)
			fillStore(t, ref)
			s := NewSharded(n)
			fillStore(t, s)
			if s.Len() != ref.Len() {
				t.Fatalf("Len = %d, want %d", s.Len(), ref.Len())
			}
			if got, want := s.Iterations(), ref.Iterations(); !sameIterSet(got, want) {
				t.Fatalf("Iterations = %v, want %v", got, want)
			}
			for it := int64(0); it < 4; it++ {
				if got, want := keysOf(s.Iteration(it)), keysOf(ref.Iteration(it)); !reflect.DeepEqual(got, want) {
					t.Fatalf("Iteration(%d) order differs:\n got %v\nwant %v", it, got, want)
				}
				if got, want := totalBytes(s, it), totalBytes(ref, it); got != want {
					t.Fatalf("bytes of iteration %d = %d, want %d", it, got, want)
				}
			}
			// TakeIteration must hand back the exact same deterministic order
			// regardless of how the entries were spread over shards.
			if got, want := keysOf(s.TakeIteration(2)), keysOf(ref.TakeIteration(2)); !reflect.DeepEqual(got, want) {
				t.Fatalf("TakeIteration order differs:\n got %v\nwant %v", got, want)
			}
			if got := s.Iteration(2); len(got) != 0 {
				t.Fatalf("iteration 2 still has %d entries after TakeIteration", len(got))
			}
		})
	}
}

func sameIterSet(a, b []int64) bool {
	seen := make(map[int64]bool, len(a))
	for _, it := range a {
		seen[it] = true
	}
	if len(seen) != len(b) {
		return false
	}
	for _, it := range b {
		if !seen[it] {
			return false
		}
	}
	return true
}

// residentStore returns a 4-shard store holding 16 entries for each of
// iterations 1..resident-1; refill puts iteration 0's 16 entries, the ones
// the TakeIteration measurements below take back out.
func residentStore(tb testing.TB, resident int) (s *Store, refill func()) {
	s = NewSharded(4)
	put := func(it int64) {
		for src := 0; src < 16; src++ {
			if err := s.Put(inlineEntry("var", it, src, 8)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for it := int64(1); it < int64(resident); it++ {
		put(it)
	}
	return s, func() { put(0) }
}

// BenchmarkTakeIterationResident reports the iteration index's cost at 1 and
// 64 resident iterations; TestTakeIterationCostTracksIterationNotResidency
// holds the ratio.
func BenchmarkTakeIterationResident(b *testing.B) {
	for _, resident := range []int{1, 64} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			s, refill := residentStore(b, resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				refill()
				b.StartTimer()
				if got := s.TakeIteration(0); len(got) != 16 {
					b.Fatalf("took %d entries", len(got))
				}
			}
		})
	}
}

// Taking one iteration must cost O(entries in that iteration), independent
// of how many other iterations are resident: with 256 resident it may take
// at most 8x the single-resident time. The bound is deliberately loose (shard
// iteration overhead, cache effects; x0.9-1.3 measured) — the regression it
// guards against is the O(whole store) scan, which reads x35 here (skipping
// a foreign entry is ~8x cheaper than taking one, so 64 resident iterations
// would show only x9). Best of five rounds per residency keeps a
// descheduled round out of it.
func TestTakeIterationCostTracksIterationNotResidency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio")
	}
	cost := func(resident int) time.Duration {
		s, refill := residentStore(t, resident)
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			var total time.Duration
			for i := 0; i < 2000; i++ {
				refill()
				start := time.Now()
				got := s.TakeIteration(0)
				total += time.Since(start)
				if len(got) != 16 {
					t.Fatalf("took %d entries", len(got))
				}
			}
			best = min(best, total)
		}
		return best
	}
	small, large := cost(1), cost(256)
	t.Logf("TakeIteration x2000: %v at 1 resident iteration, %v at 256 (x%.2f)",
		small, large, float64(large)/float64(small))
	if large > 8*small {
		t.Errorf("TakeIteration scales with residency: %v -> %v, bound x8", small, large)
	}
}

// The hash-route + lookup runs on every write notification, so a sharded Get
// hit must not allocate, whatever the shard count.
func TestShardedGetDoesNotAllocate(t *testing.T) {
	for _, n := range []int{1, 4} {
		s := NewSharded(n)
		for src := 0; src < 16; src++ {
			if err := s.Put(inlineEntry("temperature", 1, src, 8)); err != nil {
				t.Fatal(err)
			}
		}
		k := Key{"temperature", 1, 7}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := s.Get(k); !ok {
				t.Fatal("miss")
			}
		})
		if allocs != 0 {
			t.Errorf("shards=%d: Get allocates %.1f/op, budget is 0", n, allocs)
		}
	}
}

// BenchmarkStoreGet times the shard-routing hot path
// (TestShardedGetDoesNotAllocate holds its 0 allocs/op).
func BenchmarkStoreGet(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s := NewSharded(n)
			for src := 0; src < 16; src++ {
				if err := s.Put(inlineEntry("temperature", 1, src, 8)); err != nil {
					b.Fatal(err)
				}
			}
			k := Key{"temperature", 1, 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(k); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
