package shm

import (
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSegmentValidation(t *testing.T) {
	if _, err := NewSegment(0); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := NewSegment(-5); err == nil {
		t.Error("expected error for negative size")
	}
	if _, err := NewSegment(100, WithLockFree(0)); err == nil {
		t.Error("expected error for zero clients")
	}
	if _, err := NewSegment(3, WithLockFree(10)); err == nil {
		t.Error("expected error when partitions round to zero bytes")
	}
}

func TestMutexReserveRelease(t *testing.T) {
	s, err := NewSegment(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.alloc.(*mutexAllocator); !ok {
		t.Errorf("allocator = %T", s.alloc)
	}
	b1, err := s.Reserve(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Reserve(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if b1.off == b2.off {
		t.Error("blocks must not alias")
	}
	if s.FreeBytes() != 512 {
		t.Errorf("free = %d, want 512", s.FreeBytes())
	}
	copy(b1.Data(), []byte("hello"))
	if string(b1.Data()[:5]) != "hello" {
		t.Error("data not visible through block")
	}
	if err := b1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Release(); !errors.Is(err, ErrStale) {
		t.Errorf("second release: %v, want ErrStale", err)
	}
	if s.FreeBytes() != 768 {
		t.Errorf("free after release = %d, want 768", s.FreeBytes())
	}
	b2.Release()
	if s.FreeBytes() != 1024 {
		t.Errorf("free after all released = %d, want 1024", s.FreeBytes())
	}
	if s.Reserves() != 2 || s.Releases() != 2 {
		t.Errorf("counters = %d/%d, want 2/2", s.Reserves(), s.Releases())
	}
}

func TestMutexCoalescing(t *testing.T) {
	s, _ := NewSegment(300)
	a, _ := s.Reserve(0, 100)
	b, _ := s.Reserve(0, 100)
	c, _ := s.Reserve(0, 100)
	if _, err := s.Reserve(0, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	// Release out of order; the free list must coalesce back to one span.
	a.Release()
	c.Release()
	b.Release()
	if _, err := s.Reserve(0, 300); err != nil {
		t.Fatalf("segment did not coalesce: %v", err)
	}
}

func TestReserveErrors(t *testing.T) {
	s, _ := NewSegment(64)
	if _, err := s.Reserve(0, 0); !errors.Is(err, ErrBadSize) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := s.Reserve(0, -3); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative size: %v", err)
	}
	if _, err := s.Reserve(0, 65); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversize: %v", err)
	}
	s.Close()
	if _, err := s.Reserve(0, 8); !errors.Is(err, ErrClosed) {
		t.Errorf("closed: %v", err)
	}
}

func TestPartitionedBasic(t *testing.T) {
	s, err := NewSegment(400, WithLockFree(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.alloc.(*partitionedAllocator); !ok {
		t.Errorf("allocator = %T", s.alloc)
	}
	// Each client owns 100 bytes.
	b0, err := s.Reserve(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b0.off != 0 {
		t.Errorf("client 0 offset = %d", b0.off)
	}
	b3, err := s.Reserve(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b3.off != 300 {
		t.Errorf("client 3 offset = %d", b3.off)
	}
	// Client 0 partition is now full.
	if _, err := s.Reserve(0, 1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("expected ErrNoSpace, got %v", err)
	}
	// Releasing recycles on the next reserve.
	b0.Release()
	b0b, err := s.Reserve(0, 100)
	if err != nil {
		t.Fatalf("partition did not recycle: %v", err)
	}
	if b0b.off != 0 {
		t.Errorf("recycled offset = %d, want 0", b0b.off)
	}
	if _, err := s.Reserve(7, 10); err == nil {
		t.Error("expected out-of-range client error")
	}
	if _, err := s.Reserve(-1, 10); err == nil {
		t.Error("expected negative client error")
	}
}

func TestPartitionedIsolation(t *testing.T) {
	// One client exhausting its partition must not affect the others.
	s, _ := NewSegment(1000, WithLockFree(10))
	for i := 0; i < 10; i++ {
		if _, err := s.Reserve(0, 10); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if _, err := s.Reserve(0, 1); !errors.Is(err, ErrNoSpace) {
		t.Error("client 0 should be exhausted")
	}
	for c := 1; c < 10; c++ {
		if _, err := s.Reserve(c, 100); err != nil {
			t.Errorf("client %d should be unaffected: %v", c, err)
		}
	}
}

func TestReserveWaitUnblocks(t *testing.T) {
	s, _ := NewSegment(128)
	b, _ := s.Reserve(0, 128)
	done := make(chan Block)
	go func() {
		nb, err := s.ReserveWait(0, 64)
		if err != nil {
			t.Errorf("ReserveWait: %v", err)
		}
		done <- nb
	}()
	select {
	case <-done:
		t.Fatal("ReserveWait returned before space was freed")
	case <-time.After(20 * time.Millisecond):
	}
	b.Release()
	select {
	case nb := <-done:
		if nb == (Block{}) {
			t.Fatal("zero block")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReserveWait did not unblock after release")
	}
}

// A block larger than every region the allocator places blocks in (the
// segment, a client's partition, every first-fit part) fails at once
// instead of waiting for space no release can make, though the parts
// together hold it.
func TestReserveWaitImpossible(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want int64
		opts       []Option
	}{
		{"segment", 64, 65, nil},
		{"partition", 4 << 20, 2 << 20, []Option{WithLockFree(4)}},
		{"first-fit part", 100, 80, []Option{WithParts(30)}},
		{"every first-fit part", 100, 31, []Option{WithParts(30, 30, 30)}},
	} {
		s, err := NewSegment(c.size, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := s.ReserveWait(0, c.want)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrNoSpace) {
				t.Errorf("%s: expected ErrNoSpace for impossible request, got %v", c.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: ReserveWait(%d) still blocked after 2s", c.name, c.want)
			s.Close()
		}
	}
}

func TestReserveWaitClosed(t *testing.T) {
	s, _ := NewSegment(64)
	_, _ = s.Reserve(0, 64)
	errc := make(chan error, 1)
	go func() {
		_, err := s.ReserveWait(0, 32)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("expected ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReserveWait did not observe Close")
	}
}

func TestConcurrentMutexAllocator(t *testing.T) {
	// Many goroutines reserving and releasing concurrently; validate no two
	// live blocks ever overlap by writing a unique pattern and re-reading.
	s, _ := NewSegment(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := s.ReserveWait(int(id), 128)
				if err != nil {
					t.Errorf("reserve: %v", err)
					return
				}
				for j := range b.Data() {
					b.Data()[j] = id
				}
				for j := range b.Data() {
					if b.Data()[j] != id {
						t.Errorf("corruption: blocks overlap")
						return
					}
				}
				b.Release()
			}
		}(byte(g))
	}
	wg.Wait()
	if s.FreeBytes() != s.Size() {
		t.Errorf("free = %d after all released, want %d", s.FreeBytes(), s.Size())
	}
}

func TestConcurrentPartitioned(t *testing.T) {
	const clients = 8
	s, _ := NewSegment(clients*1024, WithLockFree(clients))
	var wg, releasers sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b, err := s.ReserveWait(id, 512)
				if err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				pat := byte(id + 1)
				for j := range b.Data() {
					b.Data()[j] = pat
				}
				// Release from another goroutine, as the dedicated core would.
				releasers.Add(1)
				go func() {
					defer releasers.Done()
					for j := range b.Data() {
						if b.Data()[j] != pat {
							t.Error("cross-partition corruption")
							return
						}
					}
					b.Release()
				}()
			}
		}(c)
	}
	wg.Wait()
	releasers.Wait()
}

// Property: any sequence of mutex-allocator reservations and releases, on a
// segment whole or in parts, keeps the live blocks disjoint and each inside
// one part, conserves free bytes, and never leaves a free span across a part
// start. An odd step releases a live block instead of reserving.
func TestQuickMutexNoOverlap(t *testing.T) {
	const size = 1 << 15
	f := func(steps []uint16, rawParts []uint16) bool {
		sizes := make([]int64, len(rawParts)%6)
		for i := range sizes {
			sizes[i] = int64(rawParts[i])%(size/2) + 1
		}
		s, err := NewSegment(size, WithParts(sizes...))
		if err != nil {
			return false
		}
		a := s.alloc.(*mutexAllocator)
		var live []Block
		for i, raw := range steps {
			if raw%2 == 1 && len(live) > 0 {
				j := i % len(live)
				live[j].Release()
				live = append(live[:j], live[j+1:]...)
			} else {
				b, err := s.Reserve(0, int64(raw%2048)+1)
				if err != nil && !errors.Is(err, ErrNoSpace) {
					return false
				}
				if err == nil {
					live = append(live, b)
				}
			}
			held := int64(0)
			for j, b := range live {
				lo, hi := b.off, b.off+b.Size()
				if lo < 0 || hi > size || acrossPart(s, lo, hi) {
					return false
				}
				for _, o := range live[:j] {
					if lo < o.off+o.Size() && o.off < hi {
						return false
					}
				}
				held += b.Size()
			}
			if s.FreeBytes()+held != size {
				return false
			}
			for _, sp := range a.spans {
				if acrossPart(s, sp.off, sp.off+sp.size) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// acrossPart reports whether [lo, hi) holds a part start past lo.
func acrossPart(s *Segment, lo, hi int64) bool {
	for i := range s.parts {
		if st := s.parts[i].off; lo < st && st < hi {
			return true
		}
	}
	return false
}

// Blocks of every size from 1 byte to the largest part fill a segment of
// four parts and are released in two interleaved passes: no block lies
// across a part start, and the free spans coalesce back to exactly the
// parts, none across a part start.
func TestSegmentPartStartSweep(t *testing.T) {
	const size = 128
	for k := int64(1); k <= 40; k++ {
		s, err := NewSegment(size, WithParts(40, 24, 24))
		if err != nil {
			t.Fatal(err)
		}
		var live []Block
		for {
			b, err := s.Reserve(0, k)
			if errors.Is(err, ErrNoSpace) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if acrossPart(s, b.off, b.off+k) {
				t.Fatalf("k=%d: block [%d, %d) lies across a part start", k, b.off, b.off+k)
			}
			live = append(live, b)
		}
		for pass := range 2 {
			for i := pass; i < len(live); i += 2 {
				live[i].Release()
			}
		}
		a := s.alloc.(*mutexAllocator)
		if len(a.spans) != len(s.parts) {
			t.Fatalf("k=%d: free spans %v after every release, want the %d parts", k, a.spans, len(s.parts))
		}
		for i, sp := range a.spans {
			if sp.off != s.parts[i].off || sp.size != s.parts[i].size {
				t.Errorf("k=%d: free span %d is %v, want part [%d, +%d)", k, i, sp, s.parts[i].off, s.parts[i].size)
			}
		}
		if _, err := s.Reserve(0, 41); !errors.Is(err, ErrNoSpace) {
			t.Errorf("k=%d: a block larger than every part: %v, want ErrNoSpace", k, err)
		}
	}
}

// totalAlloc runs f and returns the heap bytes it allocated. A collection
// first, so that a cycle f's allocations start does not count the runtime's
// own first-cycle allocations (its mark workers) against f.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leastAlloc returns the fewest heap bytes any of three runs of f
// allocated: another goroutine's allocation during a run only adds to it.
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		least = min(least, totalAlloc(f))
	}
	return least
}

// A segment allocates its first part when it is created, the remainder once
// when the first reservation lands past it, and nothing but its first
// generation-table page for every reservation after.
func TestSegmentCommittedAlloc(t *testing.T) {
	const size, committed, page = 64 << 20, 3<<20 + 1000, 8 << 10
	const slack = 1 << 10 // the Segment, its allocator and its spans
	var s *Segment
	got := leastAlloc(func() {
		var err error
		if s, err = NewSegment(size, WithParts(committed)); err != nil {
			t.Fatal(err)
		}
	})
	if got < committed || got > committed+page+slack {
		t.Errorf("NewSegment allocated %d bytes, want the %d-byte first part rounded to a page", got, committed)
	}
	if s.AllocatedBytes() != committed {
		t.Errorf("AllocatedBytes = %d, want the %d-byte first part", s.AllocatedBytes(), committed)
	}
	first, err := s.Reserve(0, committed)
	if err != nil {
		t.Fatal(err)
	}
	var past Block
	if got := totalAlloc(func() { past, err = s.Reserve(0, 1<<20) }); err != nil {
		t.Fatal(err)
	} else if rest := int64(size - committed); got < uint64(rest) || got > uint64(rest)+page+slack {
		t.Errorf("first reservation past the first part allocated %d bytes, want the %d-byte remainder", got, rest)
	}
	if past.off < committed {
		t.Fatalf("second block at %d, inside the first part", past.off)
	}
	if s.AllocatedBytes() != size {
		t.Errorf("AllocatedBytes = %d, want the whole %d bytes", s.AllocatedBytes(), size)
	}
	first.Release()
	for _, at := range []string{"first part", "remainder"} {
		var b Block // zero on the first run, whose Release does nothing
		if got := leastAlloc(func() { b.Release(); b, err = s.Reserve(0, committed) }); err != nil {
			t.Fatal(err)
		} else if got != 0 {
			t.Errorf("reservation in the %s allocated %d bytes, want nothing", at, got)
		}
		if (b.off < committed) != (at == "first part") {
			t.Errorf("block at %d, want it in the %s", b.off, at)
		}
		b.Data()[0] = 1
	}
}

// A reservation that lands in a lazy part allocates exactly that part, and
// only the first one does; parts no reservation reached stay unallocated.
func TestSegmentPartsAlloc(t *testing.T) {
	const mib, page = 1 << 20, 8 << 10
	const slack = 1 << 10 // a generation-table page, the allocator's spans
	s, err := NewSegment(16*mib, WithParts(mib, 2*mib, 2*mib))
	if err != nil {
		t.Fatal(err)
	}
	var held []Block
	for _, c := range []struct {
		size, part int64 // the part the block lands in, by its start
		alloc      int64 // the bytes the reservation allocates
		allocated  int64 // AllocatedBytes after it
	}{
		{mib, 0, 0, mib},
		{mib, mib, 2 * mib, 3 * mib},             // the first part is full: the second is touched
		{mib, mib, 0, 3 * mib},                   // the second again: allocated already
		{mib + mib/2, 3 * mib, 2 * mib, 5 * mib}, // too large for the second's rest
		{mib / 2, 3 * mib, 0, 5 * mib},
	} {
		var b Block
		got := totalAlloc(func() { b, err = s.Reserve(0, c.size) })
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
		if b.off < c.part || b.off+c.size > c.part+2*mib {
			t.Errorf("block [%d, +%d) outside the part at %d", b.off, c.size, c.part)
		}
		if got < uint64(c.alloc) || got > uint64(c.alloc)+page+slack {
			t.Errorf("reservation of %d bytes at %d allocated %d bytes, want %d", c.size, b.off, got, c.alloc)
		}
		if s.AllocatedBytes() != c.allocated {
			t.Errorf("AllocatedBytes = %d after a block at %d, want %d", s.AllocatedBytes(), b.off, c.allocated)
		}
	}
	for _, b := range held {
		b.Release()
	}
	if got := leastAlloc(func() {
		for i := range held {
			held[i], err = s.Reserve(0, held[i].size)
		}
		for _, b := range held {
			b.Release()
		}
	}); got != 0 || err != nil {
		t.Errorf("reserving again in allocated parts allocated %d bytes (%v), want nothing", got, err)
	}
	if s.AllocatedBytes() != 5*mib {
		t.Errorf("AllocatedBytes = %d after the blocks came back, want the %d bytes touched", s.AllocatedBytes(), 5*mib)
	}
}

// Clients reserve concurrently from a segment whose first part holds two of
// their blocks and whose next parts hold one each, so lazy parts are
// allocated while they reserve; a dedicated-core goroutine reads and
// releases every block through Data().
func TestSegmentCommittedConcurrent(t *testing.T) {
	const clients, block = 8, 512
	s, err := NewSegment(clients*4*block, WithParts(2*block, block, block))
	if err != nil {
		t.Fatal(err)
	}
	filled := make(chan Block, clients)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range filled {
			pat := b.Data()[0]
			for _, v := range b.Data() {
				if v != pat {
					t.Error("block overwritten before release")
					break
				}
			}
			b.Release()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, err := s.ReserveWait(0, block)
				if err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				for j := range b.Data() {
					b.Data()[j] = id
				}
				filled <- b
			}
		}(byte(c + 1))
	}
	wg.Wait()
	close(filled)
	<-done
	if s.FreeBytes() != s.Size() {
		t.Errorf("free = %d after all released, want %d", s.FreeBytes(), s.Size())
	}
}

// Property: partitioned allocator keeps every block inside its client's
// region.
func TestQuickPartitionedBounds(t *testing.T) {
	f := func(reqs []uint16) bool {
		const clients = 4
		const per = 4096
		s, err := NewSegment(clients*per, WithLockFree(clients))
		if err != nil {
			return false
		}
		for i, raw := range reqs {
			client := i % clients
			size := int64(raw%512) + 1
			b, err := s.Reserve(client, size)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				return false
			}
			base := int64(client) * per
			if b.off < base || b.off+b.Size() > base+per {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBlockReleasedReporting(t *testing.T) {
	seg, err := NewSegment(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := seg.Reserve(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Released() {
		t.Error("fresh block reports released")
	}
	if err := blk.Release(); err != nil {
		t.Fatal(err)
	}
	if !blk.Released() {
		t.Error("released block reports live")
	}
	// A double release is refused and keeps the counter consistent.
	if err := blk.Release(); !errors.Is(err, ErrStale) {
		t.Errorf("double release: %v, want ErrStale", err)
	}
	if got := seg.Releases(); got != 1 {
		t.Errorf("Releases = %d, want 1", got)
	}
}

// eachAllocator runs f on a 1 KiB first-fit segment and on a 1 KiB
// partitioned segment of one client.
func eachAllocator(t *testing.T, f func(t *testing.T, s *Segment)) {
	for _, c := range []struct {
		name string
		opts []Option
	}{{"first-fit", nil}, {"partitioned", []Option{WithLockFree(1)}}} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSegment(1<<10, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			f(t, s)
		})
	}
}

// Releases of one handle racing each other free its bytes once: exactly one
// succeeds, the others are refused.
func TestHandleDoubleRelease(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *Segment) {
		b, err := s.Reserve(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		const racers = 4
		errs := make(chan error, racers)
		for range racers {
			go func() { errs <- b.Release() }()
		}
		freed := 0
		for range racers {
			if err := <-errs; err == nil {
				freed++
			} else if !errors.Is(err, ErrStale) {
				t.Errorf("release: %v, want nil or ErrStale", err)
			}
		}
		if freed != 1 || s.Releases() != 1 {
			t.Errorf("%d of %d releases succeeded, Releases() = %d; want 1 and 1", freed, racers, s.Releases())
		}
		// The freed region is handed out once more, not twice.
		if _, err := s.Reserve(0, s.Size()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reserve(0, 1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("reserve past a full segment: %v, want ErrNoSpace", err)
		}
	})
}

// A handle whose slot was handed out again reads nothing and releases
// nothing: the new block keeps its bytes and its place.
func TestHandleReusedSlot(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *Segment) {
		old, err := s.Reserve(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Release(); err != nil {
			t.Fatal(err)
		}
		cur, err := s.Reserve(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		if cur.slot != old.slot || cur.off != old.off || cur == old {
			t.Fatalf("reservation after release: slot %d at %d (old handle: slot %d at %d), want the same slot and region under a new generation",
				cur.slot, cur.off, old.slot, old.off)
		}
		copy(cur.Data(), "live")
		if d := old.Data(); d != nil {
			t.Errorf("Data through the stale handle = %d bytes, want nil", len(d))
		}
		if err := old.Release(); !errors.Is(err, ErrStale) {
			t.Errorf("release through the stale handle: %v, want ErrStale", err)
		}
		if string(cur.Data()[:4]) != "live" || cur.Released() || s.FreeBytes() != s.Size()-256 || s.Releases() != 1 {
			t.Errorf("the stale handle disturbed the new block: data %q, released %v, free %d, releases %d",
				cur.Data()[:4], cur.Released(), s.FreeBytes(), s.Releases())
		}
	})
}

// Released is a query on the segment, and an old handle's answer stays
// true once its slot is live again under a new generation.
func TestHandleReleasedAfterReuse(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *Segment) {
		if (Block{}).Released() || (Block{}).Data() != nil || (Block{}).Release() != nil {
			t.Error("the zero Block names a block")
		}
		old, err := s.Reserve(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if old.Released() {
			t.Error("fresh block reports released")
		}
		if err := old.Release(); err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			cur, err := s.Reserve(0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !old.Released() || cur.Released() {
				t.Errorf("reuse %d: old handle released %v, new handle released %v; want true, false", i, old.Released(), cur.Released())
			}
			if err := cur.Release(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Once a segment's generation table holds as many slots as blocks live at
// once, a reservation and its release allocate nothing, and neither does
// reading the counters the dedicated core's registry reports.
func TestReserveReleaseDoesNotAllocate(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *Segment) {
		var held [3]Block
		cycle := func() {
			for i := range held {
				b, err := s.Reserve(0, 100)
				if err != nil {
					t.Fatal(err)
				}
				b.Data()[0] = byte(i)
				held[i] = b
			}
			for _, b := range held {
				if err := b.Release(); err != nil {
					t.Fatal(err)
				}
			}
			if s.AllocatedBytes() < s.Size()-s.FreeBytes() || s.Reserves() < s.Releases() {
				t.Fatal("counters disagree")
			}
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("reserve+release allocates %v times per cycle of %d blocks, want 0", n, len(held))
		}
	})
}

// BenchmarkTransportSharedMemory vs BenchmarkTransportKernelPipe reproduces
// the paper's §V-B comparison with FUSE-based designs: "such a FUSE
// interface is about 10 times slower in transferring data than using shared
// memory". The pipe pushes every byte through the kernel twice (write +
// read), as a FUSE round trip does; the shared segment is one user-space
// copy.

func BenchmarkTransportSharedMemory(b *testing.B) {
	const size = 1 << 20
	seg, err := NewSegment(4 * size)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := seg.Reserve(0, size)
		if err != nil {
			b.Fatal(err)
		}
		copy(blk.Data(), payload)
		blk.Release()
	}
}

func BenchmarkTransportKernelPipe(b *testing.B) {
	const size = 1 << 20
	r, w, err := os.Pipe()
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	payload := make([]byte, size)
	sink := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := io.ReadFull(r, sink); err != nil {
				done <- err
				return
			}
		}
	}()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
	<-done
}

// BenchmarkShmContention runs 8 concurrent writers against one segment —
// the paper's all-cores-copy-at-once moment.
func BenchmarkShmContention(b *testing.B) {
	const size = 64 << 10
	seg, err := NewSegment(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	b.SetBytes(size * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk, err := seg.ReserveWait(0, size)
				if err != nil {
					b.Error(err)
					return
				}
				copy(blk.Data(), data)
				blk.Release()
			}()
		}
		wg.Wait()
	}
}
