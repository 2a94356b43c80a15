package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/metadata"
)

// scratch is the pipeline's degraded-mode overflow: a local DSF-framed
// spill file plus a background drainer. When the bounded queue has
// backpressured past its threshold, the event loop appends the oldest
// queued iteration to the scratch file (fsynced — local durability is the
// durability story then), releases its shared-memory chunks early, and
// acks it, decoupling clients from the stalled backend. The drainer
// replays spilled iterations through the normal persister path, in spill
// order, retrying with capped backoff until the backend recovers; once
// everything spilled has been replayed the file is truncated. Crash
// recovery is just reading the scratch file back: openScratch decodes the
// valid frame prefix, truncates away any torn tail, and hands the
// recovered iterations to the same drainer.
type scratch struct {
	path      string
	after     int // consecutive backpressured submits before spilling
	persister Persister

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	end       int64      // where the next frame is appended
	pending   []spillRec // spilled (or recovered), not yet replayed
	stranded  int        // frames whose replay failed terminally at close
	closed    bool
	spilled   int64
	replayed  int64
	recovered int64
	failures  int64
	bytes     int64
	drainErr  error

	done chan struct{} // drainer exited
}

// spillRec is one frame awaiting replay: where it lies in the scratch file,
// not its bytes. A spill exists to get an iteration out of memory, so the
// drainer reads each frame back when its turn comes instead of the backlog
// sitting on the heap for as long as the backend is down.
type spillRec struct {
	it     int64
	off, n int64 // the whole frame, header included
}

// SpillStats is a snapshot of the scratch-spill path, exported through
// PipelineStats.
type SpillStats struct {
	// Enabled reports whether a scratch file is attached at all.
	Enabled bool
	// Threshold is the consecutive-backpressure count that triggers a spill.
	Threshold int
	// Spilled counts iterations diverted to the scratch file this run;
	// Recovered counts iterations read back from a previous run's file.
	Spilled, Recovered int64
	// Replayed counts spilled/recovered iterations made durable through the
	// normal store path; Pending is the backlog still awaiting replay.
	Replayed int64
	Pending  int
	// Stranded counts frames whose replay failed terminally at close — the
	// bytes remain in the scratch file for the next run's recovery.
	Stranded int
	// Failures counts replay attempts that errored (including retried ones).
	Failures int64
	// Bytes is the total payload spilled this run.
	Bytes int64
}

// openScratch opens (creating if needed) the scratch file at path,
// recovers any iterations a previous run left behind, and starts the
// drainer. The persister is the normal store path replays go through.
func openScratch(path string, after int, persister Persister) (*scratch, error) {
	if after < 1 {
		after = 1
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("core: scratch dir: %w", err)
	}
	frames, consumed, err := dsf.ReadSpillFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: scratch recovery: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: scratch open: %w", err)
	}
	// Drop any torn tail a crash mid-append left behind; everything before
	// it is intact (CRC-checked) and will be replayed.
	if err := f.Truncate(consumed); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: scratch truncate: %w", err)
	}
	sc := &scratch{
		path:      path,
		after:     after,
		persister: persister,
		f:         f,
		end:       consumed,
		recovered: int64(len(frames)),
		done:      make(chan struct{}),
	}
	sc.cond = sync.NewCond(&sc.mu)
	for _, fr := range frames {
		sc.pending = append(sc.pending, spillRec{it: fr.Iteration, off: fr.Offset, n: dsf.SpillFrameOverhead + int64(len(fr.Payload))})
	}
	go sc.drain()
	return sc, nil
}

// spill appends one iteration's entries as a frame and fsyncs. On return
// the iteration is locally durable: the caller may release its chunks and
// ack it. The payload is a complete DSF stream, so the frame alone is
// enough to reconstruct the iteration after a crash.
func (sc *scratch) spill(it int64, entries []*metadata.Entry) error {
	payload, err := encodeSpillPayload(entries)
	if err != nil {
		return fmt.Errorf("core: spill encode it %d: %w", it, err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return fmt.Errorf("core: spill after close")
	}
	// Written at the tracked offset, not the file position: a failed append
	// leaves end where it was and the next frame overwrites the torn bytes.
	n, err := dsf.AppendSpillFrame(io.NewOffsetWriter(sc.f, sc.end), it, payload)
	if err != nil {
		return err
	}
	if err := sc.f.Sync(); err != nil {
		return fmt.Errorf("core: spill sync: %w", err)
	}
	sc.spilled++
	sc.bytes += int64(len(payload))
	sc.pending = append(sc.pending, spillRec{it: it, off: sc.end, n: n})
	sc.end += n
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

// drain replays pending frames in spill order through the persister,
// retrying each with capped backoff until it lands or the scratch is
// closed (then each remaining frame gets one final attempt; failures
// strand the frame on disk for the next run's recovery). The scratch file
// is truncated whenever the backlog fully drains, so steady state after a
// recovered brownout is an empty file.
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
		rec := sc.pending[0]
		sc.mu.Unlock()

		entries, err := sc.readFrame(rec)
		if err == nil {
			backoff := replayBackoffBase
			for {
				if err = sc.persister.Persist(rec.it, entries); err == nil {
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
				sc.drainErr = fmt.Errorf("core: spill replay it %d: %w", rec.it, err)
			}
		} else {
			sc.replayed++
		}
		// Fully drained with nothing stranded: the file's frames are all
		// durable through the store path, so reclaim the space. Stranded
		// frames pin the file — truncating would destroy the only copy.
		if len(sc.pending) == 0 && sc.stranded == 0 {
			if sc.f.Truncate(0) == nil {
				sc.end = 0
			}
		}
		sc.mu.Unlock()
	}
}

// readFrame reads one pending frame back from the scratch file and decodes
// it the way recovery does, so the CRC is checked again on the way out.
func (sc *scratch) readFrame(rec spillRec) ([]*metadata.Entry, error) {
	buf := make([]byte, rec.n)
	if _, err := sc.f.ReadAt(buf, rec.off); err != nil {
		return nil, fmt.Errorf("core: spill frame at offset %d: %w", rec.off, err)
	}
	frames, consumed := dsf.DecodeSpillFrames(buf)
	if len(frames) != 1 || consumed != rec.n || frames[0].Iteration != rec.it {
		return nil, fmt.Errorf("core: spill frame at offset %d is damaged", rec.off)
	}
	return decodeSpillEntries(frames[0].Payload)
}

// close stops accepting spills, lets the drainer make one final attempt at
// each pending frame, and reports stranded frames as an error — the data
// is still on disk, and the next run's openScratch will recover it.
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
	err := sc.f.Close()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.drainErr != nil {
		return fmt.Errorf("%w (%d iterations stranded in %s, recovered on next start)",
			sc.drainErr, sc.stranded, sc.path)
	}
	return err
}

// encodeSpillPayload serializes one iteration's entries as a complete DSF
// stream. Chunks are stored uncompressed: the spill path exists to shed
// load fast, and the replay re-encodes through the real persister anyway —
// the scratch bytes never reach the backend.
func encodeSpillPayload(entries []*metadata.Entry) ([]byte, error) {
	var buf bytes.Buffer
	w, err := dsf.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	w.SetAttribute("writer", "damaris-scratch-spill")
	for _, e := range entries {
		if err := w.WriteChunk(chunkOf(e, dsf.None), e.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSpillEntries reconstructs an iteration's entries from a spill
// payload as heap-backed inline entries (Release is a no-op on them — the
// shared-memory chunks were freed at spill time).
func decodeSpillEntries(payload []byte) ([]*metadata.Entry, error) {
	r, err := dsf.OpenReaderAt(bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		return nil, fmt.Errorf("core: spill payload: %w", err)
	}
	metas := r.Chunks()
	entries := make([]*metadata.Entry, len(metas))
	for i, m := range metas {
		data, err := r.ReadChunk(i)
		if err != nil {
			return nil, fmt.Errorf("core: spill chunk %d: %w", i, err)
		}
		entries[i] = &metadata.Entry{
			Key:    metadata.Key{Name: m.Name, Iteration: m.Iteration, Source: m.Source},
			Layout: m.Layout,
			Inline: data,
			Global: m.Global,
		}
	}
	return entries, nil
}
