// Package aggregate is the cross-core aggregation layer that sits between
// the write-behind persistence pipeline and the storage-backend seam.
//
// The paper's scaling story (§IV-D, Figs. 6–7) is that Damaris wins because
// dedicated cores collapse thousands of small writes into one large
// sequential file per node. The pipeline alone still persists one DSF stream
// per dedicated core, so a node with several dedicated cores hits storage
// several times per epoch. This package closes that gap (mode "core"): the
// dedicated cores of a node share one aggregator, owned by the lowest
// dedicated-core group (so election needs no communication). Sibling cores
// file their completed iterations into its pending map under one lock; one
// leader goroutine merges each flush epoch's contributions in deterministic
// (member, name, source) order and commits exactly one DSF object per node
// per epoch through the store.Backend seam. Each node writes independently
// of every other, as in the paper; docs/aggregate.md says why there is no
// cross-node tier.
//
// Durability acks flow back through the aggregator: a member's Persist call
// returns only once the *merged* object containing its contribution is
// durable, so the pipeline's existing release-after-persist rule keeps
// shared-memory chunks pinned until then, and the client flow window keeps
// advancing in ack order exactly as before. That window is also what bounds
// the contributions the leader holds: nothing a member calls blocks here.
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

// Sink receives one merged flush epoch at a time, in strictly ascending
// epoch order, from the aggregation leader. CommitEpoch must be durable when
// it returns — its error (or nil) is what every contributing member's
// Persist call reports. Implementations are called from the single leader
// goroutine, once per epoch.
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
	// Sink receives the merged epochs.
	Sink Sink
	// Tracer, when non-nil, records one StageMerge span per emitted epoch
	// (iteration = epoch) covering the merge plus the sink commit;
	// TraceServer labels the spans with the leader's world rank.
	Tracer      *obs.Tracer
	TraceServer int
}

// contribution is one member's datasets for one flush epoch.
type contribution struct {
	entries []*metadata.Entry
	done    chan error // receives the merged epoch's commit outcome
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
	// RingDepth summarizes the contributions submitted and not yet
	// committed, sampled at each submit and each commit; RingMax is its
	// high-water mark. The members' flow windows bound it.
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
	cfg Config
	led chan struct{} // closed when the leader has drained

	mu        sync.Mutex
	wake      sync.Cond // signalled by Submit and MemberDone; the leader waits
	pending   map[int64]map[int]*contribution
	doneMbr   map[int]bool
	memberSet map[int]bool
	// counters behind Stats
	epochs      int64
	emptyEpochs int64
	contribs    int64
	chunks      int64
	bytes       int64
	commitFails int64
	held        int            // contributions submitted, not yet committed
	depth       *obs.Histogram // held, at each submit and commit
	maxHeld     int
	maxEpochIn  int64          // highest epoch any member has submitted
	lags        *obs.Histogram // per-commit durability window (epochs)
	maxLag      int64
}

// New starts an aggregator and its leader.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("aggregate: no members")
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("aggregate: nil sink")
	}
	a := &Aggregator{
		cfg:       cfg,
		led:       make(chan struct{}),
		pending:   make(map[int64]map[int]*contribution),
		doneMbr:   make(map[int]bool),
		memberSet: make(map[int]bool, len(cfg.Members)),
		depth:     obs.NewHistogram(obs.CountBuckets()),
		lags:      obs.NewHistogram(obs.CountBuckets()),
	}
	a.wake.L = &a.mu
	for _, m := range cfg.Members {
		if a.memberSet[m] {
			return nil, fmt.Errorf("aggregate: duplicate member %d", m)
		}
		a.memberSet[m] = true
	}
	go a.lead()
	return a, nil
}

// Submit files one member's datasets for one flush epoch with the
// aggregation leader and returns a channel that reports the merged epoch's
// durable outcome. It never blocks on the leader: the member's flow window
// is what bounds how many epochs it has pending. Empty entries are legal and
// required: every member must submit every epoch it observes, or siblings'
// epochs never complete. Each member must submit its epochs in ascending
// order (core's event loop guarantees this by contributing at iteration
// completion); that is what makes the leader's emission strictly ascending,
// which keeps each member's acks in order and so lets its flow window
// advance.
func (a *Aggregator) Submit(member int, epoch int64, entries []*metadata.Entry) <-chan error {
	done := make(chan error, 1)
	if !a.memberSet[member] {
		done <- fmt.Errorf("aggregate: unknown member %d", member)
		return done
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.doneMbr) == len(a.memberSet) {
		panic("aggregate: Submit after every member is done")
	}
	st := a.pending[epoch]
	if st == nil {
		st = make(map[int]*contribution)
		a.pending[epoch] = st
	}
	if st[member] != nil {
		done <- fmt.Errorf("aggregate: member %d contributed epoch %d twice", member, epoch)
		return done
	}
	st[member] = &contribution{entries: entries, done: done}
	a.contribs++
	a.maxEpochIn = max(a.maxEpochIn, epoch)
	a.hold(1)
	a.wake.Signal()
	return done
}

// MemberDone declares that a member will submit no further epochs. A done
// member counts as contributed, so this may complete a pending epoch; once
// every member is done the leader flushes what remains and exits.
func (a *Aggregator) MemberDone(member int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.memberSet[member] {
		a.doneMbr[member] = true
		a.wake.Signal()
	}
}

// Close waits for the leader to drain every pending epoch, then closes the
// sink. Every member must have called MemberDone first (or Close blocks
// until they do — the shutdown ordering the server teardown follows).
func (a *Aggregator) Close() error {
	<-a.led
	return a.cfg.Sink.Close()
}

// Stats snapshots the aggregator's counters.
func (a *Aggregator) Stats() Stats {
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
		RingDepth:           a.depth.Summary(),
		RingMax:             a.maxHeld,
		DurabilityWindow:    a.lags.Summary(),
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
	e.Gauge("damaris_aggregate_ring_max", float64(s.RingMax), ls...)
	e.Summary("damaris_aggregate_ring_depth", s.RingDepth, ls...)
	e.Summary("damaris_aggregate_durability_window_epochs", s.DurabilityWindow, ls...)
	// Named so it cannot collide with the `_max` companion the summary
	// above already emits — a duplicate series would make Prometheus
	// reject the whole scrape.
	e.Gauge("damaris_aggregate_durability_window_max_epochs", float64(s.DurabilityWindowMax), ls...)
}

// hold adds n to the contributions held and samples the count. Caller
// holds a.mu.
func (a *Aggregator) hold(n int) {
	a.held += n
	a.maxHeld = max(a.maxHeld, a.held)
	a.depth.Observe(float64(a.held))
}

// lead is the aggregator's one leader: it commits epochs in strictly
// ascending order until every member is done and nothing is pending.
func (a *Aggregator) lead() {
	defer close(a.led)
	for {
		epoch, st, ok := a.next()
		if !ok {
			return
		}
		a.commit(epoch, st)
	}
}

// next waits until the lowest pending epoch is complete, or until every
// member is done, and removes that epoch from pending. Only the lowest
// pending epoch may be emitted — that is what keeps emission (and therefore
// ack and flow-window) order deterministic. Once every member is done, each
// remaining epoch is flushed ascending with whoever contributed (in a
// symmetric deployment everything is complete; stragglers of a torn-down
// run are still deterministic for a given contribution set). ok=false means
// every member is done and nothing is pending.
func (a *Aggregator) next() (epoch int64, st map[int]*contribution, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		allDone := len(a.doneMbr) == len(a.memberSet)
		epoch, st, ok = a.lowestPending()
		if ok && (allDone || a.complete(st)) {
			delete(a.pending, epoch)
			return epoch, st, true
		}
		if allDone {
			return 0, nil, false
		}
		a.wake.Wait()
	}
}

// commit merges one epoch, commits it through the sink and only then acks
// its contributors.
func (a *Aggregator) commit(epoch int64, st map[int]*contribution) {
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
	// The slowest-sibling durability window: this epoch just became
	// durable while the fastest member had already submitted up to
	// maxEpochIn — every member's chunks for the span in between are
	// still pinned, which is what the shared-buffer bound must cover.
	lag := a.maxEpochIn - epoch
	a.lags.Observe(float64(lag))
	a.maxLag = max(a.maxLag, lag)
	if len(entries) == 0 && err == nil {
		a.emptyEpochs++
	} else if err != nil {
		a.commitFails++
	} else {
		a.epochs++
		a.chunks += int64(len(entries))
		a.bytes += bytes
	}
	a.hold(-len(st))
	a.mu.Unlock()

	// The merged epoch is durable (or definitively failed): only now do
	// the contributors learn about it and release their chunks.
	for _, m := range members {
		st[m].done <- err
	}
}

// lowestPending returns the smallest pending epoch. Caller holds a.mu.
func (a *Aggregator) lowestPending() (int64, map[int]*contribution, bool) {
	var best int64
	var st map[int]*contribution
	for e, s := range a.pending {
		if st == nil || e < best {
			best, st = e, s
		}
	}
	return best, st, st != nil
}

// complete reports whether every member still expected has contributed.
// Caller holds a.mu.
func (a *Aggregator) complete(st map[int]*contribution) bool {
	for m := range a.memberSet {
		if st[m] == nil && !a.doneMbr[m] {
			return false
		}
	}
	return true
}

// merge flattens one epoch's contributions into the deterministic commit
// order: members ascending, each member's entries in its submission order
// (the metadata catalog hands them over sorted by (name, source)). The
// result is byte-identical for any arrival order and any pipeline worker
// count. members lists every contributor (the ack set); withData only those
// whose entries are in the merged object (its provenance).
func merge(st map[int]*contribution) (members, withData []int, entries []*metadata.Entry) {
	for m := range st {
		members = append(members, m)
	}
	sort.Ints(members)
	for _, m := range members {
		if len(st[m].entries) > 0 {
			withData = append(withData, m)
		}
		entries = append(entries, st[m].entries...)
	}
	return members, withData, entries
}
