package core

import (
	"log/slog"
	"sync/atomic"
	"time"

	"damaris/internal/config"
	"damaris/internal/event"
)

// Event-loop sharding: the dedicated core's single event loop becomes N
// shard loops, each pulling from its own queue. Clients are routed to
// shards by rank at handshake time (localIdx % shards), so one client's
// events keep their FIFO order on one shard; iteration completion, global
// signals and exits are counted node-wide through the shared event.Tally,
// and flushes rendezvous there so per-epoch emission into the pipeline,
// spill, and aggregation layers stays strictly ascending — exactly the
// single-submitter sequence the pre-sharding loop produced. See
// docs/sharding.md.

// accountEvery bounds how many events a shard loop handles between two
// updates of its busy time, so a loop that never finds its queue empty still
// shows up in a live scrape.
const accountEvery = 64

// shardLoop is one of the dedicated core's event-loop shards.
type shardLoop struct {
	idx   int
	queue *event.Queue
	eng   *event.Engine

	events atomic.Int64 // events handled by this loop
}

// ShardStat is one event-loop shard's activity snapshot, reported through
// PipelineStats.Shards.
type ShardStat struct {
	// Events counts events handled by this shard's loop.
	Events int64
	// Steals is always zero: shard loops do not steal from one another
	// (docs/sharding.md says why). The field stays only because
	// bench/layers.go reads it for the core.shard_steals row, and goes with
	// that row.
	Steals int64
	// Wakeups counts the times the loop left a park — what an idle dedicated
	// core pays for; it grows with iterations and signals, never with the
	// number of writes or with wall time.
	Wakeups int64
	// QueueLen is the shard queue's instantaneous length at snapshot time.
	QueueLen int
	// BusySeconds is the time this shard's loop spent handling events;
	// BusyFraction is that over the server's wall time — frozen when the
	// shard loops exit, so post-run snapshots are stable (the per-shard
	// complement of the paper's spare-time figure).
	BusySeconds  float64
	BusyFraction float64
}

// effectiveShards resolves the shard-loop count for a dedicated core
// serving `clients` compute cores: the configured count, at least one loop,
// at most one per client — a shard with no clients would idle forever.
func effectiveShards(cfg *config.Config, clients int) int {
	return min(max(cfg.ShardCount, 1), clients)
}

// runShard is one shard loop: park until the queue has something to act on,
// drain the whole backlog in FIFO order, account the pass, park again. Idle
// and busy time and the event count are booked once per pass, not per event.
// It returns when the shard's queue is closed and drained.
func (s *Server) runShard(sl *shardLoop) {
	mark := time.Now()
	for {
		open := sl.queue.Park()
		mark = s.account(sl, mark, false, 0)
		n := 0
		for {
			ev, ok := sl.queue.TryPop()
			if !ok {
				break
			}
			s.handle(sl, ev)
			if n++; n == accountEvery {
				mark = s.account(sl, mark, true, n)
				n = 0
			}
		}
		mark = s.account(sl, mark, true, n)
		if !open {
			return
		}
	}
}

// account books the time since mark as busy (handling `events` events) or
// spare (parked) and returns the new mark.
func (s *Server) account(sl *shardLoop, mark time.Time, busy bool, events int) time.Time {
	now := time.Now()
	d := now.Sub(mark).Seconds()
	s.mu.Lock()
	if busy {
		s.shardWS.AddBusy(sl.idx, d)
	} else {
		s.spareDur += d
	}
	s.mu.Unlock()
	sl.events.Add(int64(events))
	return now
}

// handle hands one event to the shard's engine and records its outcome.
func (s *Server) handle(sl *shardLoop, ev event.Event) {
	if s.tracer != nil && ev.Kind == event.WriteNotification {
		// The write span opens when the iteration's first write was made,
		// not when this loop got round to it.
		at := ev.At
		if at.IsZero() {
			at = time.Now()
		}
		s.mu.Lock()
		if first, seen := s.iterFirst[ev.Iteration]; !seen || at.Before(first) {
			s.iterFirst[ev.Iteration] = at
		}
		s.mu.Unlock()
	}
	if err := sl.eng.Handle(ev); err != nil {
		s.mu.Lock()
		s.eventErrs++
		first := s.eventErrs == 1
		s.mu.Unlock()
		if first {
			slog.Error("core: event not handled; later failures are only counted",
				"server", s.id, "iteration", ev.Iteration, "err", err)
		}
	}
}

// shardStats snapshots every shard loop's counters, busy time (from the
// server's WorkerSet slots), and instantaneous queue length.
func (s *Server) shardStats() []ShardStat {
	end := time.Now()
	s.mu.Lock()
	busy := s.shardWS.Busy()
	if !s.stoppedAt.IsZero() {
		end = s.stoppedAt
	}
	s.mu.Unlock()
	wall := end.Sub(s.started).Seconds()
	out := make([]ShardStat, len(s.shards))
	for i, sl := range s.shards {
		st := ShardStat{
			Events:      sl.events.Load(),
			Wakeups:     sl.queue.Wakes(),
			QueueLen:    sl.queue.Len(),
			BusySeconds: busy[i],
		}
		if wall > 0 {
			st.BusyFraction = st.BusySeconds / wall
		}
		out[i] = st
	}
	return out
}
