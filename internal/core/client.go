package core

import (
	"errors"
	"fmt"
	"time"

	"damaris/internal/config"
	"damaris/internal/event"
	"damaris/internal/layout"
	"damaris/internal/shm"
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
	pipe     *pipeline // the dedicated core's: its ack watermark is the flow window
	source   int       // world rank, the paper's "source" tuple component
	localIdx int       // allocator slot within the server's client group

	pending map[pendKey]pendingAlloc

	// EndIteration calls that waited on the flow window and reservations
	// that waited for shared-memory space; the dedicated core's counters
	// gain each as it happens.
	flowWaits, bufferWaits int

	finalized bool
}

type pendKey struct {
	name string
	it   int64
}

// pendingAlloc is an Alloc awaiting its Commit: the block handed out, the
// chunk's place in the global domain, and when the write began.
type pendingAlloc struct {
	blk    shm.Block
	global layout.Block
	at     time.Time
}

func newClient(cfg *config.Config, seg *shm.Segment, q *event.Queue, pipe *pipeline, source, localIdx int) *Client {
	return &Client{
		cfg:      cfg,
		seg:      seg,
		queue:    q,
		pipe:     pipe,
		source:   source,
		localIdx: localIdx,
		pending:  make(map[pendKey]pendingAlloc),
	}
}

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
	if c.finalized {
		return fmt.Errorf("core: write after finalize")
	}
	lay, ok := c.cfg.LayoutOf(name)
	if !ok {
		return fmt.Errorf("core: write of undeclared variable %q", name)
	}
	if int64(len(data)) != lay.Bytes() {
		return fmt.Errorf("core: variable %q: layout %v wants %d bytes, got %d",
			name, lay, lay.Bytes(), len(data))
	}
	start := time.Now()
	blk, err := c.reserve(lay.Bytes())
	if err != nil {
		return fmt.Errorf("core: variable %q: %w", name, err)
	}
	copy(blk.Data(), data)
	c.notify(name, iteration, blk, layout.Block{}, start)
	return nil
}

// notify queues the write notification of a filled block, stamped with
// when the client began the write.
func (c *Client) notify(name string, iteration int64, blk shm.Block, global layout.Block, at time.Time) {
	c.queue.Push(event.Event{
		Kind:      event.WriteNotification,
		Name:      name,
		Iteration: iteration,
		Source:    c.source,
		Block:     blk,
		Global:    global,
		At:        at,
	})
}

// reserve claims shared-memory space, blocking while the segment is full. A
// write notification does not wake a parked shard loop, so this client's (or
// a sibling's) earlier writes may still be queued — and applying an overwrite
// of the same variable and iteration is what releases the older block. Before
// blocking, the client therefore nudges the dedicated core's loops to apply
// what is queued; otherwise it could wait for space only its own unapplied
// write would free.
func (c *Client) reserve(size int64) (shm.Block, error) {
	blk, err := c.seg.Reserve(c.localIdx, size)
	if errors.Is(err, shm.ErrNoSpace) {
		c.bufferWaits++
		c.pipe.bufferWaits.Add(1)
		c.queue.Nudge()
		return c.seg.ReserveWait(c.localIdx, size)
	}
	return blk, err
}

// Alloc reserves the variable's shared-memory buffer and returns it for
// in-place production — the paper's zero-copy path (§III-C, "Minimum-copy
// overhead": "the simulation directly allocates its variables in the shared
// memory buffer"). global is the chunk's position in the global domain
// (zero when the variable has none). The caller fills the returned slice
// then calls Commit.
func (c *Client) Alloc(name string, iteration int64, global layout.Block) ([]byte, error) {
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
	start := time.Now()
	blk, err := c.reserve(lay.Bytes())
	if err != nil {
		return nil, fmt.Errorf("core: alloc %q: %w", name, err)
	}
	c.pending[k] = pendingAlloc{blk, global, start}
	return blk.Data(), nil
}

// Commit tells the dedicated core that a buffer obtained from Alloc is
// ready (the paper's dc_commit). The write time seen by the simulation is
// only the notification push — no copy at all. The notification is stamped
// with the Alloc's start, so the write it reports covers the reservation
// and the filling.
func (c *Client) Commit(name string, iteration int64) error {
	k := pendKey{name, iteration}
	p, ok := c.pending[k]
	if !ok {
		return fmt.Errorf("core: commit of %q iteration %d without alloc", name, iteration)
	}
	delete(c.pending, k)
	c.notify(name, iteration, p.blk, p.global, p.at)
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
	// Flow control: run at most `window` iterations ahead of the pipeline's
	// last acked one (window = persist_queue_depth), so a fast client can never fill the shared
	// buffer with its own backlog and starve a sibling's current iteration
	// (see the pipeline doc in pipeline.go). This wait overlaps the next
	// compute phase in real use — by the time the simulation computes, the
	// pipeline has drained within the window again.
	if c.pipe.wait(iteration) {
		c.flowWaits++
	}
	return nil
}

// Waits returns how many of this client's EndIteration calls waited on the
// flow window and how many of its reservations waited for space in the
// shared buffer: the write phases the dedicated side held up.
func (c *Client) Waits() (flow, buffer int) { return c.flowWaits, c.bufferWaits }

// Finalize releases the client's association with the dedicated core
// (df_finalize). Uncommitted allocations are abandoned and their blocks
// released.
func (c *Client) Finalize() error {
	if c.finalized {
		return nil
	}
	c.finalized = true
	for k, p := range c.pending {
		_ = p.blk.Release() // an uncommitted block's only handle is the client's
		delete(c.pending, k)
	}
	c.queue.Push(event.Event{Kind: event.ClientExit, Source: c.source})
	return nil
}
