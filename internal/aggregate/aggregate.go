// Package aggregate is the cross-core aggregation layer that sits between
// the write-behind persistence pipeline and the storage-backend seam.
//
// The paper's scaling story (§IV-D, Figs. 6–7) is that Damaris wins because
// dedicated cores collapse thousands of small writes into one large
// sequential file per node. The pipeline alone still persists one DSF stream
// per dedicated core, so a node with several dedicated cores hits storage
// several times per epoch. This package closes that gap (mode "core"): the
// dedicated cores of a node elect a leader (deterministically — the lowest
// dedicated-core group, so election needs no communication). Sibling cores
// hand their completed iterations to the leader over a bounded in-process
// fan-in ring; the leader merges each flush epoch's contributions in
// deterministic (member, name, source) order and commits exactly one DSF
// object per node per epoch through the store.Backend seam. Each node writes
// independently of every other, as in the paper; docs/aggregate.md says why
// there is no cross-node tier.
//
// Durability acks flow back through the aggregator: a member's Persist call
// returns only once the *merged* object containing its contribution is
// durable, so the pipeline's existing release-after-persist rule keeps
// shared-memory chunks pinned until then, and the client flow window keeps
// advancing in ack order exactly as before.
//
// Epochs are emitted in strictly ascending order. The leader may crash
// mid-epoch (injected in tests); a standby takes over under the next term
// and re-emits every pending epoch — contributions stay queued until their
// epoch's commit is acknowledged, so a re-election never loses data and
// never releases client chunks early.
package aggregate

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
)

// DefaultRingDepth bounds the fan-in ring when the configuration leaves the
// knob unset: enough to absorb every member contributing one epoch plus a
// queued one without parking writers.
const DefaultRingDepth = 8

// Sink receives one merged flush epoch at a time, in strictly ascending
// epoch order, from the aggregation leader. CommitEpoch must be durable when
// it returns — its error (or nil) is what every contributing member's
// Persist call reports. Implementations are called from a single leader
// goroutine, but must tolerate an epoch being committed twice (a leader
// crash after the commit but before the ack re-emits it), so commits must be
// idempotent — which DSF objects published by atomic rename or manifest-last
// commit are by construction.
type Sink interface {
	// CommitEpoch makes one merged epoch durable. members lists the
	// contributing member ids ascending; entries are the merged datasets in
	// deterministic order.
	CommitEpoch(epoch int64, members []int, entries []*metadata.Entry) error
	// Close releases sink resources once no further epoch will be committed.
	Close() error
}

// Config describes one aggregator instance.
type Config struct {
	// Mode labels the aggregator for reporting ("core").
	Mode string
	// Members are the ids of every contributor (the node's dedicated cores'
	// world ranks). Order does not matter; merges always sort ascending.
	Members []int
	// RingDepth bounds the fan-in ring (0 selects DefaultRingDepth).
	RingDepth int
	// Sink receives the merged epochs.
	Sink Sink
	// TestCrashBeforeCommit, when non-nil, is consulted by the leader right
	// before every sink commit; returning true kills that leader term
	// mid-epoch (the epoch stays pending, a successor re-emits it). Test
	// hook only.
	TestCrashBeforeCommit func(term int, epoch int64) bool
	// Tracer, when non-nil, records one StageMerge span per emitted epoch
	// (iteration = epoch) covering the merge plus the sink commit;
	// TraceServer labels the spans with the leader's world rank.
	Tracer      *obs.Tracer
	TraceServer int
}

// contribution is one member's datasets for one flush epoch, travelling
// through the fan-in ring.
type contribution struct {
	member  int
	epoch   int64
	entries []*metadata.Entry
	done    chan error // receives the merged epoch's commit outcome
}

// epochState collects the contributions of one flush epoch until every
// member has reported in.
type epochState struct {
	contribs map[int]*contribution
}

// Stats is a snapshot of one aggregator's counters, surfaced through
// core.PipelineStats and reported by cmd/damaris-run.
type Stats struct {
	// Mode and Members echo the configuration.
	Mode    string
	Members int
	// Epochs counts merged epochs durably committed; EmptyEpochs the epochs
	// acked without an object (no member had data).
	Epochs      int64
	EmptyEpochs int64
	// Contributions counts member submissions accepted.
	Contributions int64
	// MergedChunks and MergedBytes measure the committed merge volume.
	MergedChunks int64
	MergedBytes  int64
	// CommitFailures counts sink commits that returned an error.
	CommitFailures int64
	// Reelections counts leader terms beyond the first — each one is a
	// simulated leader crash survived.
	Reelections int64
	// RingDepth summarizes fan-in ring occupancy; RingMax is its high-water
	// mark.
	RingDepth stats.Summary
	RingMax   int
	// DurabilityWindow summarizes, per committed epoch, how many epochs
	// ahead the fastest member had already submitted when this epoch became
	// durable — the node-wide epoch lifetime in epochs, i.e. the slowest
	// sibling's durability window. A member's shared-memory chunks stay
	// pinned for exactly this long, so the shared buffer must hold
	// DurabilityWindowMax+1 write phases per member (the bound core.Deploy
	// derives and enforces).
	DurabilityWindow    stats.Summary
	DurabilityWindowMax int64
}

// Aggregator merges per-member flush epochs into one object per epoch. One
// instance is shared by all of a node's dedicated cores; Submit and
// MemberDone are safe for concurrent use.
type Aggregator struct {
	cfg  Config
	ring *ring
	wg   sync.WaitGroup

	mu        sync.Mutex
	pending   map[int64]*epochState
	doneMbr   map[int]bool
	memberSet map[int]bool
	closed    bool
	term      int
	// counters behind Stats
	epochs      int64
	emptyEpochs int64
	contribs    int64
	chunks      int64
	bytes       int64
	commitFails int64
	reelections int64
	maxEpochIn  int64             // highest epoch any member has submitted
	seenEpoch   bool              // maxEpochIn is meaningful
	lagAcc      stats.Accumulator // per-commit durability window (epochs)
	maxLag      int64
}

// New starts an aggregator and its first leader term.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("aggregate: no members")
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("aggregate: nil sink")
	}
	if cfg.RingDepth < 0 {
		return nil, fmt.Errorf("aggregate: negative ring depth %d", cfg.RingDepth)
	}
	depth := cfg.RingDepth
	if depth == 0 {
		depth = DefaultRingDepth
	}
	a := &Aggregator{
		cfg:       cfg,
		ring:      newRing(depth),
		pending:   make(map[int64]*epochState),
		doneMbr:   make(map[int]bool),
		memberSet: make(map[int]bool, len(cfg.Members)),
	}
	for _, m := range cfg.Members {
		if a.memberSet[m] {
			return nil, fmt.Errorf("aggregate: duplicate member %d", m)
		}
		a.memberSet[m] = true
	}
	a.wg.Add(1)
	go a.lead(0)
	return a, nil
}

// Submit hands one member's datasets for one flush epoch to the aggregation
// leader and returns a channel that reports the merged epoch's durable
// outcome. It blocks while the fan-in ring is full (the aggregation
// backpressure point). Empty entries are legal and required: every member
// must submit every epoch it observes, or siblings' epochs never complete.
// Each member must submit its epochs in ascending order (core's event loop
// guarantees this by contributing at iteration completion); that is what
// makes the leader's emission strictly ascending, which keeps each member's
// acks in order and so lets its flow window advance.
func (a *Aggregator) Submit(member int, epoch int64, entries []*metadata.Entry) <-chan error {
	done := make(chan error, 1)
	if !a.memberSet[member] {
		done <- fmt.Errorf("aggregate: unknown member %d", member)
		return done
	}
	a.mu.Lock()
	a.contribs++
	if !a.seenEpoch || epoch > a.maxEpochIn {
		a.maxEpochIn, a.seenEpoch = epoch, true
	}
	a.mu.Unlock()
	a.ring.push(&contribution{member: member, epoch: epoch, entries: entries, done: done})
	return done
}

// MemberDone declares that a member will submit no further epochs. Once
// every member is done the fan-in ring closes and the leader drains.
func (a *Aggregator) MemberDone(member int) {
	a.mu.Lock()
	if a.doneMbr[member] || !a.memberSet[member] {
		a.mu.Unlock()
		return
	}
	a.doneMbr[member] = true
	last := len(a.doneMbr) == len(a.memberSet) && !a.closed
	if last {
		a.closed = true
	}
	a.mu.Unlock()
	if last {
		a.ring.close()
	} else {
		// A done member counts as "contributed" for completeness, so a
		// pending epoch may have just become emittable with no further
		// contribution ever arriving — wake a leader parked in pop.
		a.ring.kick()
	}
}

// Close waits for the leader to drain every pending epoch, then closes the
// sink. Every member must have called MemberDone first (or Close blocks
// until they do — the shutdown ordering the server teardown follows).
func (a *Aggregator) Close() error {
	a.wg.Wait()
	return a.cfg.Sink.Close()
}

// Stats snapshots the aggregator's counters.
func (a *Aggregator) Stats() Stats {
	depth, max := a.ring.snapshot()
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Mode:                a.cfg.Mode,
		Members:             len(a.memberSet),
		Epochs:              a.epochs,
		EmptyEpochs:         a.emptyEpochs,
		Contributions:       a.contribs,
		MergedChunks:        a.chunks,
		MergedBytes:         a.bytes,
		CommitFailures:      a.commitFails,
		Reelections:         a.reelections,
		RingDepth:           depth,
		RingMax:             max,
		DurabilityWindow:    a.lagAcc.Summary(),
		DurabilityWindowMax: a.maxLag,
	}
}

// Emit writes the snapshot into a registry gather under the
// damaris_aggregate_* families, tier mode carried as a label.
func (s Stats) Emit(e *obs.Emitter, labels ...string) {
	ls := labels
	if s.Mode != "" {
		ls = append([]string{"mode", s.Mode}, labels...)
	}
	e.Gauge("damaris_aggregate_members", float64(s.Members), ls...)
	e.Counter("damaris_aggregate_epochs_total", float64(s.Epochs), ls...)
	e.Counter("damaris_aggregate_empty_epochs_total", float64(s.EmptyEpochs), ls...)
	e.Counter("damaris_aggregate_contributions_total", float64(s.Contributions), ls...)
	e.Counter("damaris_aggregate_merged_chunks_total", float64(s.MergedChunks), ls...)
	e.Counter("damaris_aggregate_merged_bytes_total", float64(s.MergedBytes), ls...)
	e.Counter("damaris_aggregate_commit_failures_total", float64(s.CommitFailures), ls...)
	e.Counter("damaris_aggregate_reelections_total", float64(s.Reelections), ls...)
	e.Gauge("damaris_aggregate_ring_max", float64(s.RingMax), ls...)
	e.Summary("damaris_aggregate_ring_depth", s.RingDepth, ls...)
	e.Summary("damaris_aggregate_durability_window_epochs", s.DurabilityWindow, ls...)
	// Named so it cannot collide with the `_max` companion the summary
	// above already emits — a duplicate series would make Prometheus
	// reject the whole scrape.
	e.Gauge("damaris_aggregate_durability_window_max_epochs", float64(s.DurabilityWindowMax), ls...)
}

// lead is one leader term: drain the fan-in ring, emit every epoch that
// becomes complete, strictly ascending. A crash (test hook) ends the term
// mid-epoch; the successor term re-scans the pending map, so nothing a
// member contributed is ever lost and no ack is delivered early.
func (a *Aggregator) lead(term int) {
	defer a.wg.Done()
	for {
		// Emit before popping: a successor term must first re-emit epochs
		// the crashed leader left complete but uncommitted.
		if crashed := a.emitReady(term, false); crashed {
			a.reelect(term)
			return
		}
		c, ok := a.ring.pop()
		if ok && c == nil {
			continue // wake-up marker: re-run emitReady
		}
		if !ok {
			// All members done and the ring drained: emit what remains (in a
			// symmetric deployment everything is complete; stragglers of a
			// torn-down run are emitted with whoever contributed, which is
			// still deterministic for a given contribution set).
			if crashed := a.emitReady(term, true); crashed {
				a.reelect(term)
				return
			}
			return
		}
		a.mu.Lock()
		st := a.pending[c.epoch]
		if st == nil {
			st = &epochState{contribs: make(map[int]*contribution)}
			a.pending[c.epoch] = st
		}
		if prev := st.contribs[c.member]; prev != nil {
			a.mu.Unlock()
			c.done <- fmt.Errorf("aggregate: member %d contributed epoch %d twice", c.member, c.epoch)
			continue
		}
		st.contribs[c.member] = c
		a.mu.Unlock()
	}
}

// reelect starts the next leader term — the deterministic stand-in for the
// next dedicated core taking over a crashed leader's duties.
func (a *Aggregator) reelect(term int) {
	a.mu.Lock()
	a.reelections++
	a.mu.Unlock()
	a.wg.Add(1)
	go a.lead(term + 1)
}

// emitReady commits pending epochs in ascending order. Normally only the
// lowest pending epoch may be emitted, and only once complete — that is what
// keeps emission (and therefore ack and flow-window) order deterministic.
// With force (ring closed) every remaining epoch is flushed ascending.
// Returns true when the test hook crashed this leader term.
func (a *Aggregator) emitReady(term int, force bool) bool {
	for {
		a.mu.Lock()
		epoch, st, ok := a.lowestPending()
		if !ok || (!force && !a.complete(st)) {
			a.mu.Unlock()
			return false
		}
		a.mu.Unlock()

		if a.cfg.TestCrashBeforeCommit != nil && a.cfg.TestCrashBeforeCommit(term, epoch) {
			return true
		}

		mergeStart := time.Now()
		members, withData, entries := merge(st)
		// Empty epochs travel through the sink too (StoreSink declines to
		// write an empty object). The sink sees only the data-bearing
		// members — they are the object's provenance — but every
		// contributor gets the ack.
		err := a.cfg.Sink.CommitEpoch(epoch, withData, entries)
		var bytes int64
		for _, e := range entries {
			bytes += e.Size()
		}
		a.cfg.Tracer.Record(obs.StageMerge, a.cfg.TraceServer, epoch,
			mergeStart, time.Since(mergeStart), bytes, err != nil)

		a.mu.Lock()
		delete(a.pending, epoch)
		// The slowest-sibling durability window: this epoch just became
		// durable while the fastest member had already submitted up to
		// maxEpochIn — every member's chunks for the span in between are
		// still pinned, which is what the shared-buffer bound must cover.
		if a.seenEpoch {
			lag := a.maxEpochIn - epoch
			if lag < 0 {
				lag = 0
			}
			a.lagAcc.Add(float64(lag))
			if lag > a.maxLag {
				a.maxLag = lag
			}
		}
		if len(entries) == 0 && err == nil {
			a.emptyEpochs++
		} else if err != nil {
			a.commitFails++
		} else {
			a.epochs++
			a.chunks += int64(len(entries))
			a.bytes += bytes
		}
		a.mu.Unlock()

		// The merged epoch is durable (or definitively failed): only now do
		// the contributors learn about it and release their chunks.
		for _, m := range members {
			st.contribs[m].done <- err
		}
	}
}

// lowestPending returns the smallest pending epoch. Caller holds a.mu.
func (a *Aggregator) lowestPending() (int64, *epochState, bool) {
	var best int64
	var st *epochState
	for e, s := range a.pending {
		if st == nil || e < best {
			best, st = e, s
		}
	}
	return best, st, st != nil
}

// complete reports whether every member still expected has contributed.
// Caller holds a.mu.
func (a *Aggregator) complete(st *epochState) bool {
	for m := range a.memberSet {
		if st.contribs[m] == nil && !a.doneMbr[m] {
			return false
		}
	}
	return true
}

// merge flattens one epoch's contributions into the deterministic commit
// order: members ascending, each member's entries in its submission order
// (the metadata catalog hands them over sorted by (name, source)). The
// result is byte-identical for any fan-in arrival order and any pipeline
// worker count. members lists every contributor (the ack set); withData
// only those whose entries are in the merged object (its provenance).
func merge(st *epochState) (members, withData []int, entries []*metadata.Entry) {
	for m := range st.contribs {
		members = append(members, m)
	}
	sort.Ints(members)
	for _, m := range members {
		if len(st.contribs[m].entries) > 0 {
			withData = append(withData, m)
		}
		entries = append(entries, st.contribs[m].entries...)
	}
	return members, withData, entries
}
