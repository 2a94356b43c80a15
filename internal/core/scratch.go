package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/store"
)

// scratch is the pipeline's degraded-mode overflow: a local store plus a
// background drainer. When the bounded queue has backpressured past its
// threshold, the event loop writes the oldest queued iteration into the
// store as one committed DSF object (fsync, then rename — local durability
// is the durability story then), releases its shared-memory chunks early,
// and acks it, decoupling clients from the stalled backend. The drainer
// replays spilled objects through the normal persister path, in iteration
// order, retrying with capped backoff until the backend recovers, and
// deletes each once it is durable there. Crash recovery is the store's
// listing: a spill that never committed is invisible, one that did is
// handed to the same drainer.
type scratch struct {
	local     store.Backend // the scratch store; close closes it
	spiller   *DSFPersister // writes spills into local, chunks raw
	after     int           // consecutive backpressured submits before spilling
	persister Persister

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []string // spilled (or recovered) objects, not yet replayed
	stranded  int      // objects whose replay failed terminally at close
	closed    bool
	spilled   int64
	replayed  int64
	recovered int64
	failures  int64
	bytes     int64
	drainErr  error

	done chan struct{} // drainer exited
}

// SpillStats is a snapshot of the scratch-spill path, exported through
// PipelineStats.
type SpillStats struct {
	// Enabled reports whether a scratch store is attached at all.
	Enabled bool
	// Threshold is the consecutive-backpressure count that triggers a spill.
	Threshold int
	// Spilled counts iterations diverted to the scratch store this run;
	// Recovered counts iterations a previous run left there.
	Spilled, Recovered int64
	// Replayed counts spilled/recovered iterations made durable through the
	// normal store path; Pending is the backlog still awaiting replay.
	Replayed int64
	Pending  int
	// Stranded counts iterations whose replay failed terminally at close —
	// their objects stay in the scratch store for the next run's recovery.
	Stranded int
	// Failures counts replay attempts that errored (including retried ones).
	Failures int64
	// Bytes is the user bytes spilled this run: the entries' sizes, not the
	// objects'.
	Bytes int64
}

// openScratch recovers the iterations a previous run left committed in
// local and starts the drainer. The scratch owns local from here on and
// closes it. The persister is the normal store path replays go through.
func openScratch(local store.Backend, after int, persister Persister) (*scratch, error) {
	if after < 1 {
		after = config.DefaultSpillAfter
	}
	objs, err := local.Objects()
	if err != nil {
		local.Close()
		return nil, fmt.Errorf("core: scratch recovery: %w", err)
	}
	sc := &scratch{
		local: local,
		// No codec, pool or tracer: the spill exists to shed load fast, and
		// the replay re-encodes through the real persister anyway.
		spiller:   &DSFPersister{Backend: local},
		after:     after,
		persister: persister,
		recovered: int64(len(objs)),
		done:      make(chan struct{}),
	}
	sc.cond = sync.NewCond(&sc.mu)
	for _, o := range objs {
		sc.pending = append(sc.pending, o.Name)
	}
	go sc.drain()
	return sc, nil
}

// spillName names an iteration's spill object, the iteration zero-padded so
// the store lists objects in iteration order.
func spillName(it int64) string { return fmt.Sprintf("%020d.dsf", it) }

// spill writes one iteration's entries as a committed object, the chunks
// streamed from shared memory straight into it. On return the iteration is
// locally durable: the caller may release its chunks and ack it. The lock
// spans the write, so the drainer cannot delete a same-named object between
// its commit and its queueing.
func (sc *scratch) spill(it int64, entries []*metadata.Entry) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return fmt.Errorf("core: spill after close")
	}
	name := spillName(it)
	if err := sc.spiller.PersistAsWith(name, entries, nil); err != nil {
		return fmt.Errorf("core: spill it %d: %w", it, err)
	}
	sc.spilled++
	if len(entries) == 0 { // no object written, nothing to replay
		sc.replayed++
		return nil
	}
	for _, e := range entries {
		sc.bytes += e.Size()
	}
	sc.pending = append(sc.pending, name)
	sc.cond.Signal()
	return nil
}

func (sc *scratch) stats() SpillStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SpillStats{
		Enabled:   true,
		Threshold: sc.after,
		Spilled:   sc.spilled,
		Recovered: sc.recovered,
		Replayed:  sc.replayed,
		Pending:   len(sc.pending),
		Stranded:  sc.stranded,
		Failures:  sc.failures,
		Bytes:     sc.bytes,
	}
}

// Replay backoff bounds: the drainer probes the backend at the base
// interval and backs off to the cap while it stays down.
const (
	replayBackoffBase = 20 * time.Millisecond
	replayBackoffCap  = 2 * time.Second
)

// drain replays pending objects in order through the persister, retrying
// each with capped backoff until it lands or the scratch is closed (then
// each remaining object gets one final attempt; failures strand it in the
// store for the next run's recovery). A replayed object is deleted, so
// steady state after a recovered brownout is an empty store.
func (sc *scratch) drain() {
	defer close(sc.done)
	for {
		sc.mu.Lock()
		for len(sc.pending) == 0 && !sc.closed {
			sc.cond.Wait()
		}
		if len(sc.pending) == 0 {
			sc.mu.Unlock()
			return
		}
		name := sc.pending[0]
		sc.mu.Unlock()

		it, entries, err := sc.read(name)
		if err == nil {
			backoff := replayBackoffBase
			for {
				if err = sc.persister.Persist(it, entries); err == nil {
					break
				}
				sc.mu.Lock()
				sc.failures++
				closed := sc.closed
				sc.mu.Unlock()
				if closed {
					break
				}
				time.Sleep(backoff)
				if backoff *= 2; backoff > replayBackoffCap {
					backoff = replayBackoffCap
				}
			}
		}

		sc.mu.Lock()
		sc.pending = sc.pending[1:]
		if err != nil {
			sc.stranded++
			if sc.drainErr == nil {
				sc.drainErr = fmt.Errorf("core: spill replay %s: %w", name, err)
			}
		} else {
			sc.replayed++
			// Durable through the store path, so the local copy goes — unless
			// a later spill of the same iteration (after a restart) replaced
			// it and is queued too. A failed delete only replays the object
			// again next start.
			if !slices.Contains(sc.pending, name) {
				_ = sc.local.Delete(name)
			}
		}
		sc.mu.Unlock()
	}
}

// read reads one spilled object back as heap-backed inline entries (Release
// is a no-op on them — the shared-memory chunks were freed at spill time),
// checking every chunk's CRC32 on the way out.
func (sc *scratch) read(name string) (int64, []*metadata.Entry, error) {
	it, err := strconv.ParseInt(strings.TrimSuffix(name, ".dsf"), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %q is not a spill object", name)
	}
	obj, err := sc.local.Open(name)
	if err != nil {
		return 0, nil, err
	}
	defer obj.Close()
	r, err := dsf.OpenReaderAt(obj, obj.Size())
	if err != nil {
		return 0, nil, fmt.Errorf("core: spill object %s: %w", name, err)
	}
	metas := r.Chunks()
	entries := make([]*metadata.Entry, len(metas))
	for i, m := range metas {
		data, err := r.ReadChunk(i)
		if err != nil {
			return 0, nil, fmt.Errorf("core: spill object %s: %w", name, err)
		}
		entries[i] = &metadata.Entry{
			Key:    metadata.Key{Name: m.Name, Iteration: m.Iteration, Source: m.Source},
			Layout: m.Layout,
			Inline: data,
			Global: m.Global,
		}
	}
	return it, entries, nil
}

// close stops accepting spills, lets the drainer make one final attempt at
// each pending object, closes the store, and reports stranded objects as an
// error — they are still on disk, and the next run's openScratch recovers
// them.
func (sc *scratch) close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		<-sc.done
		return sc.drainErr
	}
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
	<-sc.done
	err := sc.local.Close()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.drainErr != nil {
		return fmt.Errorf("%w (%d iterations stranded in the scratch store, recovered on next start)",
			sc.drainErr, sc.stranded)
	}
	return err
}
