package aggregate

import (
	"sync"

	"damaris/internal/obs"
	"damaris/internal/stats"
)

// ring is the bounded in-process fan-in queue between a node's dedicated
// cores and the aggregation leader. Sibling servers push contributions from
// their persist writers; the leader pops them single-threaded. The fixed
// capacity is the aggregation layer's backpressure point: when the leader
// falls behind (slow storage), pushing members block here, which in turn
// parks their pipeline writers — the same TCP-like flow the write-behind
// queue already applies upstream.
//
// A dedicated structure (rather than a bare channel) so the fan-in depth is
// observable: occupancy is sampled at every push and pop, feeding
// Stats.RingDepth.
type ring struct {
	mu    sync.Mutex
	full  *sync.Cond
	empty *sync.Cond
	buf   []*contribution
	head  int // index of the oldest element
	n     int // occupancy
	depth *obs.Histogram
	max   int
	done  bool
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	r := &ring{buf: make([]*contribution, capacity), depth: obs.NewHistogram(obs.CountBuckets())}
	r.full = sync.NewCond(&r.mu)
	r.empty = sync.NewCond(&r.mu)
	return r
}

// push blocks while the ring is full. Pushing after close panics — members
// are required to stop submitting before declaring themselves done.
func (r *ring) push(c *contribution) {
	r.mu.Lock()
	for r.n == len(r.buf) && !r.done {
		r.full.Wait()
	}
	if r.done {
		r.mu.Unlock()
		panic("aggregate: push on closed fan-in ring")
	}
	r.buf[(r.head+r.n)%len(r.buf)] = c
	r.n++
	if r.n > r.max {
		r.max = r.n
	}
	r.depth.Observe(float64(r.n))
	r.mu.Unlock()
	r.empty.Signal()
}

// pop blocks until a contribution is available or the ring is closed and
// drained; ok=false means no contribution will ever follow.
func (r *ring) pop() (*contribution, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 && !r.done {
		r.empty.Wait()
	}
	if r.n == 0 {
		return nil, false
	}
	c := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.depth.Observe(float64(r.n))
	r.full.Signal()
	return c, true
}

// kick inserts a nil wake-up marker so a leader parked in pop re-evaluates
// epoch completeness — needed when a member's *done* (not a contribution)
// is what completes a pending epoch. Non-blocking: a full ring means the
// leader is active and will loop anyway, and a closed ring is already
// draining.
func (r *ring) kick() {
	r.mu.Lock()
	if r.done || r.n == len(r.buf) {
		r.mu.Unlock()
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = nil
	r.n++
	r.mu.Unlock()
	r.empty.Signal()
}

// close marks the ring finished: pops drain the remaining contributions and
// then report exhaustion.
func (r *ring) close() {
	r.mu.Lock()
	r.done = true
	r.mu.Unlock()
	r.empty.Broadcast()
	r.full.Broadcast()
}

// snapshot reports the occupancy summary and high-water mark.
func (r *ring) snapshot() (stats.Summary, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.depth.Summary(), r.max
}
