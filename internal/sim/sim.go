// Package sim is a deterministic discrete-event simulator used to reproduce
// the paper's large-scale experiments (Kraken at 9,216 cores, Grid'5000,
// BluePrint) on a laptop.
//
// The engine is a classic event-calendar simulator: a virtual clock, a heap
// of timestamped events, and processes expressed as callbacks. On top of it,
// Resource models FCFS service stations (metadata servers, lock managers)
// and Link models bandwidth-shared channels (NICs, interconnect slices, OST
// service streams) using fair-share "processor sharing": each concurrent
// transfer receives capacity/n, recomputed whenever a transfer starts or
// ends — exactly the first-order behaviour behind the paper's contention
// arguments (§II-B: contention "first happens at the level of each multicore
// SMP node, as concurrent I/O requires all cores to access remote resources
// at the same time").
//
// All randomness comes from seeded PRNGs owned by the caller, so every
// simulated experiment is reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated seconds.
type Time = float64

// Event is a scheduled callback.
type ev struct {
	at   Time
	seq  int64 // tie-breaker: FIFO among same-time events
	call func()
}

type evHeap []*ev

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(*ev)) }
func (h *evHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is the event calendar. The zero value is not usable; use NewEngine.
type Engine struct {
	now  Time
	heap evHeap
	seq  int64
}

// NewEngine creates an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%g < %g)", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	heap.Push(&e.heap, &ev{at: t, seq: e.seq, call: fn})
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.At(e.now+delay, fn)
}

// Run executes events until the calendar empties, returning the final time.
func (e *Engine) Run() Time {
	for len(e.heap) > 0 {
		nxt := heap.Pop(&e.heap).(*ev)
		e.now = nxt.at
		nxt.call()
	}
	return e.now
}

// ---------------------------------------------------------------------------
// Resource: a FCFS service station with `servers` parallel servers, each
// serving one request at a time. Used for metadata servers and lock
// managers, whose serialization is the paper's explanation for the
// file-per-process metadata storm on Lustre ("simultaneous creations of so
// many files are serialized").

// Resource is a multi-server FCFS queue.
type Resource struct {
	eng     *Engine
	servers int
	busy    int
	queue   []resReq
}

type resReq struct {
	service Time
	done    func()
}

// NewResource creates a station with the given parallel server count.
func NewResource(eng *Engine, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{eng: eng, servers: servers}
}

// Acquire requests `service` seconds of one server, calling done when the
// request completes (after queueing plus service).
func (r *Resource) Acquire(service Time, done func()) {
	if service < 0 {
		panic("sim: negative service time")
	}
	r.queue = append(r.queue, resReq{service, done})
	r.dispatch()
}

func (r *Resource) dispatch() {
	for r.busy < r.servers && len(r.queue) > 0 {
		req := r.queue[0]
		r.queue = r.queue[1:]
		r.busy++
		r.eng.After(req.service, func() {
			r.busy--
			if req.done != nil {
				req.done()
			}
			r.dispatch()
		})
	}
}

// ---------------------------------------------------------------------------
// Link: a bandwidth-shared channel with processor-sharing semantics. Every
// active transfer gets an equal share of the (efficiency-degraded) aggregate
// bandwidth, optionally clipped by a per-transfer rate cap. This models NICs
// shared by the cores of a node, the aggregate interconnect, and the service
// capacity of a storage pool.
//
// The implementation uses the classic virtual-time trick: all active
// transfers progress at the same instantaneous rate r(t), so completion
// order equals arrival-adjusted size order. A heap keyed by "virtual finish
// service" makes every arrival/completion O(log n), which is what lets a
// single write phase simulate 9,216 concurrent streams in milliseconds.
//
// Rate-cap semantics: the common rate is r = min(aggregate·eff(n)/n,
// smallest active cap). When all concurrent transfers share one cap (the
// case in every strategy model here — a phase writes files with one stripe
// width), this is exact; with mixed caps it is conservative for the less
// constrained transfers.

// Link is a fair-shared bandwidth resource.
type Link struct {
	eng       *Engine
	bandwidth float64 // bytes per second
	// Efficiency lets concurrency degrade aggregate capacity beyond fair
	// sharing (disk seeks, lock revocations): with n active transfers the
	// aggregate is bandwidth * Efficiency(n). Nil means perfect sharing.
	Efficiency func(n int) float64

	vsrv  float64 // cumulative per-transfer service (bytes)
	lastT Time    // when vsrv was last advanced
	heap  xferHeap
	caps  map[float64]int // multiset of active per-transfer caps (>0 only)
	gen   int64           // pending wake-up generation
}

type xfer struct {
	finishV float64 // vsrv value at which this transfer completes
	cap     float64 // per-transfer rate ceiling (0 = none)
	done    func()
}

type xferHeap []*xfer

func (h xferHeap) Len() int           { return len(h) }
func (h xferHeap) Less(i, j int) bool { return h[i].finishV < h[j].finishV }
func (h xferHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *xferHeap) Push(x any)        { *h = append(*h, x.(*xfer)) }
func (h *xferHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewLink creates a channel with the given capacity in bytes/second.
func NewLink(eng *Engine, bandwidth float64) *Link {
	if bandwidth <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{eng: eng, bandwidth: bandwidth, caps: make(map[float64]int)}
}

// Transfer moves `bytes` through the link, calling done on completion.
// Concurrent transfers share the bandwidth fairly.
func (l *Link) Transfer(bytes float64, done func()) {
	l.TransferCapped(bytes, 0, done)
}

// TransferCapped is Transfer with a per-transfer rate ceiling in bytes/sec
// (0 means unlimited). It models streams that cannot use the whole pool
// even when alone — e.g. a file striped over k of T storage targets is
// bounded by k targets' bandwidth.
func (l *Link) TransferCapped(bytes, maxRate float64, done func()) {
	if bytes <= 0 {
		// Zero-byte transfers complete immediately (control messages).
		l.eng.After(0, func() {
			if done != nil {
				done()
			}
		})
		return
	}
	if maxRate < 0 {
		panic("sim: negative transfer rate cap")
	}
	l.advance()
	heap.Push(&l.heap, &xfer{finishV: l.vsrv + bytes, cap: maxRate, done: done})
	if maxRate > 0 {
		l.caps[maxRate]++
	}
	l.schedule()
}

// rate returns the current common per-transfer rate.
func (l *Link) rate() float64 {
	n := len(l.heap)
	if n == 0 {
		return 0
	}
	agg := l.bandwidth
	if l.Efficiency != nil {
		f := l.Efficiency(n)
		if f <= 0 || math.IsNaN(f) {
			f = 1e-9
		}
		agg *= f
	}
	r := agg / float64(n)
	for c := range l.caps {
		if c < r {
			r = c
		}
	}
	return r
}

// advance moves virtual service up to Now at the rate in force since the
// last accounting instant.
func (l *Link) advance() {
	now := l.eng.Now()
	if dt := now - l.lastT; dt > 0 && len(l.heap) > 0 {
		l.vsrv += l.rate() * dt
	}
	l.lastT = now
}

// schedule arms the wake-up for the earliest completion under the current
// rate, invalidating any previously armed wake-up.
func (l *Link) schedule() {
	l.gen++
	if len(l.heap) == 0 {
		return
	}
	gen := l.gen
	dt := (l.heap[0].finishV - l.vsrv) / l.rate()
	if dt < 0 {
		dt = 0
	}
	l.eng.After(dt, func() {
		if gen != l.gen {
			return // superseded by a later arrival or completion
		}
		l.advance()
		// eps is in bytes of virtual service: a millibyte of slack absorbs
		// float rounding without ever completing a transfer measurably
		// early, and prevents re-arm loops below the clock's resolution.
		const eps = 1e-3
		for len(l.heap) > 0 && l.heap[0].finishV <= l.vsrv+eps {
			t := heap.Pop(&l.heap).(*xfer)
			if t.cap > 0 {
				if l.caps[t.cap]--; l.caps[t.cap] == 0 {
					delete(l.caps, t.cap)
				}
			}
			if t.done != nil {
				t.done()
			}
			// done() may have started new transfers; re-advance so their
			// bookkeeping starts from the right instant.
			l.advance()
		}
		l.schedule()
	})
}
