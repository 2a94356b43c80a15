package core

import (
	"runtime"
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
	steal int // sibling queue length that triggers stealing; 0 = off

	events atomic.Int64 // events handled by this loop, including stolen ones
	steals atomic.Int64 // events this shard stole from sibling queues
	stolen atomic.Int64 // events siblings stole from this shard's queue
}

// ShardStat is one event-loop shard's activity snapshot, reported through
// PipelineStats.Shards.
type ShardStat struct {
	// Events counts events handled by this shard's loop (including ones it
	// stole); Steals counts events it took from sibling queues; Stolen
	// counts events siblings took from its queue.
	Events, Steals, Stolen int64
	// Wakeups counts the times the loop left a park — what an idle dedicated
	// core pays for; it grows with iterations and signals, never with the
	// number of writes or with wall time. StealHints counts the parks ended
	// by a sibling's steal hint (a push that found that sibling's loop
	// running behind a backlog).
	Wakeups, StealHints int64
	// QueueLen is the shard queue's instantaneous length at snapshot time.
	QueueLen int
	// BusySeconds is the time this shard's loop spent handling events;
	// BusyFraction is that over the server's wall time — frozen when the
	// shard loops exit, so post-run snapshots are stable (the per-shard
	// complement of the paper's spare-time figure).
	BusySeconds  float64
	BusyFraction float64
}

// nodeSpareBudget is the node's spare-core budget a dedicated core may
// spread across shard loops, persist writers, and encode workers: an
// explicit config override, or GOMAXPROCS − clients (floored at 1).
func nodeSpareBudget(cfg *config.Config, clients int) int {
	if cfg.ShardBudget > 0 {
		return cfg.ShardBudget
	}
	b := runtime.GOMAXPROCS(0) - clients
	if b < 1 {
		b = 1
	}
	return b
}

// shardBudgeted reports whether the spare-core budget is engaged: shards
// auto mode derives one, and an explicit budget opts in regardless of mode.
// Without either, budgeting is off (0) — the pre-sharding behavior.
func shardBudgeted(cfg *config.Config) bool {
	return cfg.ShardMode == "auto" || cfg.ShardBudget > 0
}

// effectiveShards resolves the shard-loop count for a dedicated core
// serving `clients` compute cores. Static mode (or no <shards> element)
// uses the configured count as-is; auto mode gives the event plane half the
// spare-core budget (rounded down, at least one loop), never more than an
// explicit count. The result is clamped to the client count — a shard with
// no clients would idle forever — and to the budget when budgeting is on.
func effectiveShards(cfg *config.Config, clients int) int {
	n := cfg.ShardCount
	if cfg.ShardMode == "auto" {
		n = nodeSpareBudget(cfg, clients) / 2
		if cfg.ShardCount > 0 && n > cfg.ShardCount {
			n = cfg.ShardCount
		}
	}
	if shardBudgeted(cfg) {
		if b := nodeSpareBudget(cfg, clients); n > b {
			n = b
		}
	}
	if n < 1 {
		n = 1
	}
	if n > clients {
		n = clients
	}
	return n
}

// stealThreshold is the queue backlog past which shard loops steal from one
// another: the configured value with several loops, 0 (off) with one.
func stealThreshold(cfg *config.Config, shards int) int {
	if shards > 1 {
		return cfg.ShardSteal
	}
	return 0
}

// runShard is one shard loop: park until the queue has something to act on,
// drain the whole backlog in FIFO order (and, when a sibling hinted, steal
// while there is something to steal), account the pass, park again. Idle and
// busy time and the event count are booked once per pass, not per event. It
// returns when the shard's queue is closed and drained.
func (s *Server) runShard(sl *shardLoop) {
	mark := time.Now()
	for {
		nudged, open := sl.queue.Park()
		mark = s.account(sl, mark, false, 0)
		n := 0
		for {
			ev, wasStolen, ok := s.nextEvent(sl, nudged)
			if !ok {
				break
			}
			s.handle(sl, ev, wasStolen)
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
		s.busyDur += d
		s.shardWS.AddBusy(sl.idx, d)
	} else {
		s.spareDur += d
	}
	s.mu.Unlock()
	sl.events.Add(int64(events))
	return now
}

// nextEvent returns the shard's next event without blocking: its own queue
// first, then — on a pass a nudge started, with stealing on — a bounded steal
// from the sibling ring. wasStolen marks events that must be un-pended after
// handling.
func (s *Server) nextEvent(sl *shardLoop, nudged bool) (ev event.Event, wasStolen, ok bool) {
	if ev, ok := sl.queue.TryPop(); ok {
		return ev, false, true
	}
	if nudged && sl.steal > 0 {
		ev, ok := s.trySteal(sl)
		return ev, true, ok
	}
	return event.Event{}, false, false
}

// handle hands one event to the shard's engine and records its outcome.
func (s *Server) handle(sl *shardLoop, ev event.Event, wasStolen bool) {
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
	err := sl.eng.Handle(ev)
	if wasStolen {
		// The write is applied (or definitively rejected): release any
		// flush waiting on this iteration's stolen events.
		sl.eng.Tally().DonePending(ev.Iteration)
	}
	if err != nil {
		s.mu.Lock()
		s.handleErrs = append(s.handleErrs, err)
		if s.flushErr == nil && isFlushError(err) {
			s.flushErr = err
		}
		s.mu.Unlock()
	}
}

// trySteal scans the sibling shards (starting just past this one, so thieves
// spread over victims) and steals at most one pending WriteNotification from
// the first whose loop is running behind a queue backlog that exceeds the
// steal threshold (StealPop refuses a parked owner's queue). Only writes are
// stealable: EndIteration/signal/exit events must stay on the owner shard so
// per-client completion order is preserved. The pending registration inside
// StealPop's accept callback happens under the victim queue's lock, before
// the victim can pop past the stolen event — a flush of that iteration then
// waits for the thief to finish applying it.
func (s *Server) trySteal(sl *shardLoop) (event.Event, bool) {
	n := len(s.shards)
	tally := sl.eng.Tally()
	for off := 1; off < n; off++ {
		sib := s.shards[(sl.idx+off)%n]
		if sib.queue.Len() <= sl.steal {
			continue
		}
		ev, ok := sib.queue.StealPop(func(ev event.Event) bool {
			if ev.Kind != event.WriteNotification {
				return false
			}
			tally.AddPending(ev.Iteration)
			return true
		})
		if !ok {
			continue
		}
		sl.steals.Add(1)
		sib.stolen.Add(1)
		return ev, true
	}
	return event.Event{}, false
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
			Events:   sl.events.Load(),
			Steals:   sl.steals.Load(),
			Stolen:   sl.stolen.Load(),
			QueueLen: sl.queue.Len(),
		}
		st.Wakeups, st.StealHints = sl.queue.Wakes()
		if i < len(busy) {
			st.BusySeconds = busy[i]
		}
		if wall > 0 {
			st.BusyFraction = st.BusySeconds / wall
		}
		out[i] = st
	}
	return out
}
