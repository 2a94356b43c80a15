package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"damaris/internal/config"
	"damaris/internal/event"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/shm"
	"damaris/internal/stats"
)

// Client is the compute-core side of Damaris, mirroring the paper's C API
// (§III-D): df_write → Write, df_signal → Signal, dc_alloc/dc_commit →
// Alloc/Commit, df_finalize → Finalize, plus EndIteration which the original
// exposes as df_end_iteration.
//
// A Client is owned by a single goroutine (one compute core), matching MPI
// process semantics.
type Client struct {
	cfg      *config.Config
	seg      *shm.Segment
	queue    *event.Queue
	fc       *flow
	source   int // world rank, the paper's "source" tuple component
	localIdx int // allocator slot within the server's client group

	pending map[pendKey]*shm.Block

	writeDurs recent[float64] // seconds per Write/Commit call
	phaseDurs recent[float64] // seconds of write activity per iteration
	phaseAcc  float64
	finalized bool
}

type pendKey struct {
	name string
	it   int64
}

func newClient(cfg *config.Config, seg *shm.Segment, q *event.Queue, fc *flow, source, localIdx int) *Client {
	return &Client{
		cfg:      cfg,
		seg:      seg,
		queue:    q,
		fc:       fc,
		source:   source,
		localIdx: localIdx,
		pending:  make(map[pendKey]*shm.Block),
	}
}

// Source returns the client's identity (its world rank).
func (c *Client) Source() int { return c.source }

// Write copies data for a configured variable into shared memory and
// notifies the dedicated core. This is the paper's df_write: "copies the
// data in shared memory along with minimal information and notifies the
// server. All additional information such as the size of the data and its
// layout are provided by the configuration file."
//
// Write blocks only when the shared buffer is full (the dedicated core has
// fallen behind); the wait is part of the measured write time, as it would
// be on a real system. Otherwise it costs the copy plus a locked append to
// the event queue — never a wake-up of the dedicated core, which picks the
// notification up when EndIteration (or any other non-write event) resumes
// it.
func (c *Client) Write(name string, iteration int64, data []byte) error {
	lay, ok := c.cfg.LayoutOf(name)
	if !ok {
		return fmt.Errorf("core: write of undeclared variable %q", name)
	}
	return c.write(name, iteration, data, lay, layout.Block{}, false)
}

// WriteBlock is Write plus the chunk's position in the global domain, used
// by persistency layers that record global placement.
func (c *Client) WriteBlock(name string, iteration int64, data []byte, global layout.Block) error {
	lay, ok := c.cfg.LayoutOf(name)
	if !ok {
		return fmt.Errorf("core: write of undeclared variable %q", name)
	}
	return c.write(name, iteration, data, lay, global, false)
}

// WriteDynamic writes an array whose shape is not statically configured
// (particle arrays and other per-iteration shapes, §III-D "arrays that
// don't have a static shape"). The layout travels with the notification.
func (c *Client) WriteDynamic(name string, iteration int64, data []byte, lay layout.Layout) error {
	if lay.IsZero() {
		return fmt.Errorf("core: WriteDynamic of %q needs a layout", name)
	}
	return c.write(name, iteration, data, lay, layout.Block{}, true)
}

func (c *Client) write(name string, iteration int64, data []byte, lay layout.Layout, global layout.Block, dynamic bool) error {
	if c.finalized {
		return fmt.Errorf("core: write after finalize")
	}
	if int64(len(data)) != lay.Bytes() {
		return fmt.Errorf("core: variable %q: layout %v wants %d bytes, got %d",
			name, lay, lay.Bytes(), len(data))
	}
	start := time.Now()
	blk, err := c.reserve(int64(len(data)))
	if err != nil {
		return fmt.Errorf("core: variable %q: %w", name, err)
	}
	copy(blk.Data(), data)
	ev := event.Event{
		Kind:      event.WriteNotification,
		Name:      name,
		Iteration: iteration,
		Source:    c.source,
		Block:     blk,
		Global:    global,
		At:        start,
	}
	if dynamic {
		ev.Layout = lay
	}
	c.queue.Push(ev)
	c.recordWrite(time.Since(start))
	return nil
}

// reserve claims shared-memory space, blocking while the segment is full. A
// write notification does not wake a parked shard loop, so this client's (or
// a sibling's) earlier writes may still be queued — and applying an overwrite
// of the same variable and iteration is what releases the older block. Before
// blocking, the client therefore nudges the dedicated core's loops to apply
// what is queued; otherwise it could wait for space only its own unapplied
// write would free.
func (c *Client) reserve(size int64) (*shm.Block, error) {
	blk, err := c.seg.Reserve(c.localIdx, size)
	if errors.Is(err, shm.ErrNoSpace) {
		c.queue.Nudge()
		return c.seg.ReserveWait(c.localIdx, size)
	}
	return blk, err
}

// WriteFloat32s encodes and writes a float32 field.
func (c *Client) WriteFloat32s(name string, iteration int64, xs []float32) error {
	return c.Write(name, iteration, mpi.Float32sToBytes(xs))
}

// Alloc reserves the variable's shared-memory buffer and returns it for
// in-place production — the paper's zero-copy path (§III-C, "Minimum-copy
// overhead": "the simulation directly allocates its variables in the shared
// memory buffer"). The caller fills the returned slice then calls Commit.
func (c *Client) Alloc(name string, iteration int64) ([]byte, error) {
	if c.finalized {
		return nil, fmt.Errorf("core: alloc after finalize")
	}
	lay, ok := c.cfg.LayoutOf(name)
	if !ok {
		return nil, fmt.Errorf("core: alloc of undeclared variable %q", name)
	}
	k := pendKey{name, iteration}
	if _, dup := c.pending[k]; dup {
		return nil, fmt.Errorf("core: %q iteration %d already allocated and not committed", name, iteration)
	}
	blk, err := c.reserve(lay.Bytes())
	if err != nil {
		return nil, fmt.Errorf("core: alloc %q: %w", name, err)
	}
	c.pending[k] = blk
	return blk.Data(), nil
}

// Commit tells the dedicated core that a buffer obtained from Alloc is
// ready (the paper's dc_commit). The write time seen by the simulation is
// only the notification push — no copy at all.
func (c *Client) Commit(name string, iteration int64) error {
	k := pendKey{name, iteration}
	blk, ok := c.pending[k]
	if !ok {
		return fmt.Errorf("core: commit of %q iteration %d without alloc", name, iteration)
	}
	delete(c.pending, k)
	start := time.Now()
	c.queue.Push(event.Event{
		Kind:      event.WriteNotification,
		Name:      name,
		Iteration: iteration,
		Source:    c.source,
		Block:     blk,
		At:        start,
	})
	c.recordWrite(time.Since(start))
	return nil
}

// Signal sends a named user event to the dedicated core (df_signal). The
// reaction is defined by the configuration file.
func (c *Client) Signal(eventName string, iteration int64) error {
	if c.finalized {
		return fmt.Errorf("core: signal after finalize")
	}
	if _, ok := c.cfg.Event(eventName); !ok {
		return fmt.Errorf("core: signal of undeclared event %q", eventName)
	}
	c.queue.Push(event.Event{
		Kind:      event.UserSignal,
		Name:      eventName,
		Iteration: iteration,
		Source:    c.source,
	})
	return nil
}

// EndIteration announces that this client wrote everything for an
// iteration. When all clients of the group have done so, the dedicated core
// flushes the iteration asynchronously.
func (c *Client) EndIteration(iteration int64) error {
	if c.finalized {
		return fmt.Errorf("core: end-iteration after finalize")
	}
	if len(c.pending) > 0 {
		for k := range c.pending {
			if k.it == iteration {
				return fmt.Errorf("core: end-iteration %d with uncommitted alloc of %q", iteration, k.name)
			}
		}
	}
	c.queue.Push(event.Event{
		Kind:      event.EndIteration,
		Iteration: iteration,
		Source:    c.source,
	})
	c.phaseDurs.add(c.phaseAcc)
	c.phaseAcc = 0
	// Flow control: run at most `window` iterations ahead of the last
	// durable flush (window = 1 synchronous, persist_queue_depth under the
	// write-behind pipeline), so a fast client can never fill the shared
	// buffer with its own backlog and starve a sibling's current iteration
	// (see the flow doc in core.go). This wait overlaps the next compute
	// phase in real use — by the time the simulation computes, the
	// pipeline has drained within the window again.
	c.fc.wait(iteration)
	return nil
}

// Finalize releases the client's association with the dedicated core
// (df_finalize). Uncommitted allocations are abandoned and their blocks
// released.
func (c *Client) Finalize() error {
	if c.finalized {
		return nil
	}
	c.finalized = true
	for k, blk := range c.pending {
		blk.Release()
		delete(c.pending, k)
	}
	c.queue.Push(event.Event{Kind: event.ClientExit, Source: c.source})
	return nil
}

func (c *Client) recordWrite(d time.Duration) {
	sec := d.Seconds()
	c.writeDurs.add(sec)
	c.phaseAcc += sec
}

// WriteTimes returns the duration of the most recent Write/Commit calls (up
// to recentCap of them), in seconds — the client-visible cost of I/O, which
// the paper shows collapses to a memcpy under Damaris.
func (c *Client) WriteTimes() []float64 { return c.writeDurs.values() }

// PhaseTimes returns the per-iteration total write time of the most recent
// iterations, the quantity plotted in the paper's Figures 2 and 3.
func (c *Client) PhaseTimes() []float64 { return c.phaseDurs.values() }

// WriteStats summarizes WriteTimes.
func (c *Client) WriteStats() stats.Summary { return stats.Summarize(c.writeDurs.buf) }

// recentCap is how many samples a recent keeps: more than any test, example
// or benchmark run records, so only an arbitrarily long run ever drops one.
const recentCap = 1 << 16

// recent keeps the last recentCap values added to it, so a per-call or
// per-iteration record does not grow for the life of a run.
type recent[T any] struct {
	buf  []T
	next int // once buf is full: the oldest value, overwritten next
}

func (r *recent[T]) add(v T) {
	if len(r.buf) < recentCap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % recentCap
}

// values returns a copy of what is kept, oldest first.
func (r *recent[T]) values() []T {
	return slices.Concat(r.buf[r.next:], r.buf[:r.next])
}
