// Package event implements the shared event queue and the Event Processing
// Engine (EPE) that runs on each dedicated core.
//
// Paper §III-B, "Event queue": "The event-queue is another shared component
// of the Damaris architecture. It is used by clients either to inform the
// server that a write completed (write-notification), or to send
// user-defined events. The messages are pulled by an event processing engine
// (EPE) on the server side."
package event

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/plugin"
	"damaris/internal/shm"
)

// Kind discriminates queue messages.
type Kind uint8

// Message kinds.
const (
	// WriteNotification announces that a client finished copying a dataset
	// into shared memory.
	WriteNotification Kind = iota
	// UserSignal is a named, user-defined event (df_signal).
	UserSignal
	// EndIteration announces that a client finished an iteration's writes.
	EndIteration
	// ClientExit announces that a client called finalize.
	ClientExit
)

func (k Kind) String() string {
	switch k {
	case WriteNotification:
		return "write"
	case UserSignal:
		return "signal"
	case EndIteration:
		return "end-iteration"
	case ClientExit:
		return "client-exit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one queue message.
type Event struct {
	Kind      Kind
	Name      string // variable name (write) or event name (signal)
	Iteration int64
	Source    int          // sending client's identity (world rank)
	Block     shm.Block    // payload handle for write-notifications
	Global    layout.Block // position in the global domain (optional)
	// At is when the client began the write, stamped where the event is
	// pushed: a write queued on a parked loop is handled later than it was
	// made, and the trace's write span opens at the first push. Zero on
	// events that carry no stamp (injected ones).
	At time.Time
}

// Queue is an unbounded multi-producer FIFO owned by one consumer, a
// dedicated core's shard loop. It stands in for the shared-memory message
// queue of the original implementation.
//
// The wake protocol is purely event-driven — the paper's dedicated core is
// idle 75–99 % of the time (§IV-C), so idling has to be free and a write has
// to cost the client no more than a memcpy plus a locked append:
//
//   - The owner drains with TryPop and, once the queue is empty, blocks in
//     Park. There is no timer anywhere: a parked loop costs nothing.
//   - A WriteNotification pushed onto a parked loop's queue does not wake it.
//     Nobody waits on a metadata insert; the write is applied, in FIFO order,
//     when the loop next runs.
//   - Any other event (EndIteration, UserSignal, ClientExit) and Close wake
//     the owner, which then drains the whole backlog: one wake per unit of
//     work, not one per write.
//   - Nudge wakes the owner (and its siblings) on behalf of a client that is
//     about to block for shared-memory space: queued writes may be what holds
//     that space.
//
// Only the owner pops, so each client's events are applied in push order by
// exactly one loop.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond // the parked owner waits here
	items  []Event    // items[head:] are queued; the array is reused once drained
	head   int
	closed bool

	parked bool // the owner is blocked in Park
	wake   bool // something the owner must act on arrived since its last Park; sticky until then

	wakeups int64 // times the owner left a park

	siblings []*Queue // the dedicated core's other loops' queues; set once by LinkQueues, before the queues are shared
}

// NewQueue creates an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// LinkQueues joins the queues of one dedicated core's shard loops, so Nudge
// on any of them reaches every loop. It must be called before the queues are
// handed to clients or loops.
func LinkQueues(queues []*Queue) {
	for i, q := range queues {
		q.siblings = slices.Concat(queues[:i], queues[i+1:])
	}
}

// Push appends an event. Pushing to a closed queue panics (a client writing
// after finalize is a programming error). A write notification never wakes a
// parked owner; see the Queue doc for what does.
func (q *Queue) Push(e Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("event: Push on closed queue")
	}
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		// Full array, at least half of it already popped: slide the live
		// events down instead of growing, so a queue that never quite drains
		// stays as large as its backlog, not its history.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, e)
	signal := false
	if e.Kind != WriteNotification {
		q.wake = true
		signal = q.parked
	}
	q.mu.Unlock()
	if signal {
		q.cond.Signal()
	}
}

// pop removes the head; the caller holds q.mu and checked the queue is not
// empty. The slot is zeroed so the array pins nothing the event references.
func (q *Queue) pop() Event {
	e := q.items[q.head]
	q.items[q.head] = Event{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return e
}

// TryPop returns the next event without blocking.
func (q *Queue) TryPop() (e Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return Event{}, false
	}
	return q.pop(), true
}

// Park blocks the owning loop until there is something it must act on: an
// event other than a write notification was pushed, Nudge was called, or the
// queue was closed — since the previous Park, so nothing that arrives while
// the loop is running is lost. open is false once the queue is closed and
// drained, the loop's signal to exit.
func (q *Queue) Park() (open bool) {
	q.mu.Lock()
	if !q.wake && !q.closed {
		q.parked = true
		for !q.wake && !q.closed {
			q.cond.Wait()
		}
		q.parked = false
		q.wakeups++
	}
	q.wake = false
	open = !q.closed || q.head < len(q.items)
	q.mu.Unlock()
	return open
}

// Nudge makes every loop of the dedicated core — this queue's owner and its
// siblings' — run a pass over what is queued. A client calls it before it
// blocks for shared-memory space: a write still queued on a parked loop may
// be an overwrite whose application releases the block the client waits for.
func (q *Queue) Nudge() {
	q.wakeOwner()
	for _, sib := range q.siblings {
		sib.wakeOwner()
	}
}

// wakeOwner leaves the wake mark and resumes the owner if it is parked. The
// mark is sticky: an owner on its way into Park returns from it at once, so a
// wake racing a park is never lost.
func (q *Queue) wakeOwner() {
	q.mu.Lock()
	parked := q.parked
	q.wake = true
	q.mu.Unlock()
	if parked {
		q.cond.Signal()
	}
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Wakes returns how often the owner left a park.
func (q *Queue) Wakes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wakeups
}

// Close marks the queue closed and wakes the owner; TryPop still drains the
// remaining events, after which Park reports open=false.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Signal()
}

// Engine is the EPE: it interprets events against the configuration,
// maintains the metadata catalog, dispatches plugin actions, and detects
// iteration completion across the node's clients. A dedicated core running
// several shard loops creates one Engine per shard (NewShardEngine), all
// sharing one Tally and one metadata store; iteration completion, global
// signals, and client exits are then counted node-wide, and whatever an
// action adds to the store is seen by every engine.
//
// The entries the engine catalogs belong to the store, which reuses them: a
// plugin action may use what ctx.Store returns only until OnIterationEnd
// takes the iteration (metadata.Store.TakeIteration), and copies what it keeps.
type Engine struct {
	cfg   *config.Config
	reg   *plugin.Registry
	store *metadata.Store
	tally *Tally // shared completion/signal/exit tracking
	rank  int    // the dedicated core's world rank, a global event's source

	// OnIterationEnd, when non-nil, runs after every client has announced
	// EndIteration for an iteration (the dedicated core's flush hook).
	// Calls across all engines sharing a Tally are serialized and strictly
	// ascending in iteration completion order.
	OnIterationEnd func(iteration int64) error
	// OnAllExited, when non-nil, runs once after every client sent
	// ClientExit.
	OnAllExited func() error
}

type sigKey struct {
	name string
	it   int64
}

// NewShardEngine builds one shard's EPE sharing a node-wide tally with its
// sibling engines. All engines of one dedicated core must share both the
// tally and the metadata store; rank is the dedicated core's world rank.
func NewShardEngine(cfg *config.Config, reg *plugin.Registry, store *metadata.Store,
	tally *Tally, rank int) (*Engine, error) {
	if cfg == nil {
		return nil, fmt.Errorf("event: nil config")
	}
	if store == nil {
		return nil, fmt.Errorf("event: nil metadata store")
	}
	if tally == nil {
		return nil, fmt.Errorf("event: nil tally")
	}
	if tally.Clients() <= 0 {
		return nil, fmt.Errorf("event: engine needs at least one client, got %d", tally.Clients())
	}
	return &Engine{
		cfg:   cfg,
		reg:   reg,
		store: store,
		tally: tally,
		rank:  rank,
	}, nil
}

// Store exposes the engine's metadata catalog.
func (e *Engine) Store() *metadata.Store { return e.store }

// Handle processes one event. It returns an error for unknown variables,
// unknown events or failing actions; the caller (server loop) decides
// whether to abort or log.
func (e *Engine) Handle(ev Event) error {
	switch ev.Kind {
	case WriteNotification:
		return e.handleWrite(ev)
	case UserSignal:
		return e.handleSignal(ev)
	case EndIteration:
		return e.handleEnd(ev)
	case ClientExit:
		if e.tally.clientExit() && e.OnAllExited != nil {
			return e.OnAllExited()
		}
		return nil
	default:
		return fmt.Errorf("event: unknown kind %v", ev.Kind)
	}
}

func (e *Engine) handleWrite(ev Event) error {
	// The layout comes from the configuration: only the minimal descriptor
	// crossed shared memory.
	lay, ok := e.cfg.LayoutOf(ev.Name)
	if !ok {
		_ = ev.Block.Release() // the event holds the block's only handle
		return fmt.Errorf("event: write of undeclared variable %q", ev.Name)
	}
	if ev.Block != (shm.Block{}) && lay.Bytes() != ev.Block.Size() {
		_ = ev.Block.Release() // the event holds the block's only handle
		return fmt.Errorf("event: variable %q: layout %v wants %d bytes, block has %d",
			ev.Name, lay, lay.Bytes(), ev.Block.Size())
	}
	return e.store.Add(metadata.Entry{
		Key:    metadata.Key{Name: ev.Name, Iteration: ev.Iteration, Source: ev.Source},
		Layout: lay,
		Block:  ev.Block,
		Global: ev.Global,
	})
}

func (e *Engine) handleSignal(ev Event) error {
	decl, ok := e.cfg.Event(ev.Name)
	if !ok {
		return fmt.Errorf("event: undeclared event %q", ev.Name)
	}
	action, ok := e.reg.Get(decl.Action)
	if !ok {
		return fmt.Errorf("event: event %q: action %q not registered", ev.Name, decl.Action)
	}
	src := ev.Source
	if decl.Scope == "global" {
		// Global scope: fire once per iteration, after every client of this
		// node has raised the signal (counted node-wide across shards), on
		// behalf of the dedicated core. Each client's writes precede its
		// signal on the one queue its loop pops, so every client's pieces
		// of the iteration are catalogued by then.
		if !e.tally.signal(sigKey{ev.Name, ev.Iteration}) {
			return nil
		}
		src = e.rank
	}
	return action(&plugin.Context{Store: e.store, Iteration: ev.Iteration, Source: src}, ev.Name)
}

func (e *Engine) handleEnd(ev Event) error {
	ticket, fire := e.tally.endIteration(ev.Iteration)
	if !fire {
		return nil
	}
	// Rendezvous: wait for our flush turn (tickets are issued in iteration
	// completion order, so per-epoch emission stays strictly ascending).
	e.tally.awaitFlush(ticket)
	defer e.tally.flushDone()
	if e.OnIterationEnd != nil {
		return e.OnIterationEnd(ev.Iteration)
	}
	return nil
}
