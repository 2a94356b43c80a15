// Package schedule implements the communication-free data-transfer
// scheduling of §IV-D: "each dedicated core computes an estimation of the
// computation time of an iteration from a first run of the simulation […]
// This time is then divided into as many slots as dedicated cores. Each
// dedicated core then waits for its slot before writing. This avoids access
// contention at the level of the file system."
//
// The scheduler needs no communication: every dedicated core knows only its
// own index, the total number of dedicated cores, and the shared
// compute-interval estimate — all static — so slot starts are globally
// consistent by construction.
package schedule

import (
	"fmt"
	"time"
)

// Clock abstracts time so tests and the simulator can drive the scheduler
// without real sleeping.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// realClock is the wall-clock implementation.
type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// SlotScheduler assigns each dedicated core a periodic slot within the
// estimated compute interval.
type SlotScheduler struct {
	index    int           // this dedicated core's index among all dedicated cores
	total    int           // total number of dedicated cores
	interval time.Duration // compute-interval estimate between write phases
	epoch    time.Time     // common time origin
	clock    Clock
}

// New creates a scheduler for dedicated core `index` of `total`, with the
// measured compute interval between write phases. All dedicated cores must
// use the same interval and epoch for the slots to interleave.
func New(index, total int, interval time.Duration) (*SlotScheduler, error) {
	return NewWithClock(index, total, interval, realClock{})
}

// NewWithClock is New with an explicit clock (tests, simulation).
func NewWithClock(index, total int, interval time.Duration, clock Clock) (*SlotScheduler, error) {
	if total < 1 {
		return nil, fmt.Errorf("schedule: total dedicated cores %d < 1", total)
	}
	if index < 0 || index >= total {
		return nil, fmt.Errorf("schedule: index %d outside [0,%d)", index, total)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("schedule: non-positive interval %v", interval)
	}
	if clock == nil {
		return nil, fmt.Errorf("schedule: nil clock")
	}
	return &SlotScheduler{
		index:    index,
		total:    total,
		interval: interval,
		epoch:    clock.Now(),
		clock:    clock,
	}, nil
}

// SlotWidth returns the duration of one slot.
func (s *SlotScheduler) SlotWidth() time.Duration {
	return s.interval / time.Duration(s.total)
}

// SlotStart returns when this core's slot opens for the given iteration:
// iteration boundaries repeat every interval, and within each interval the
// cores' slots are laid out in index order.
func (s *SlotScheduler) SlotStart(iteration int64) time.Time {
	base := s.epoch.Add(time.Duration(iteration) * s.interval)
	return base.Add(time.Duration(s.index) * s.SlotWidth())
}

// WaitTurn blocks until this core's slot for the iteration opens. If the
// slot has already passed (the dedicated core fell behind), it returns
// immediately — correctness never depends on the schedule.
func (s *SlotScheduler) WaitTurn(iteration int64) {
	start := s.SlotStart(iteration)
	now := s.clock.Now()
	if wait := start.Sub(now); wait > 0 {
		s.clock.Sleep(wait)
	}
}

// BatchSlotWidth returns the combined slot width a batch covering
// iterations [first,last] claims: the batch writes once but stands in for
// last-first+1 per-iteration writes, so it owns that many of this core's
// slots back to back.
func (s *SlotScheduler) BatchSlotWidth(first, last int64) time.Duration {
	if last < first {
		last = first
	}
	return time.Duration(last-first+1) * s.SlotWidth()
}

// WaitTurnBatch blocks until this core's batch-sized slot opens — the
// batch-aware §IV-D composition with write-behind batching. A batch
// spanning [first,last] stands in for last-first+1 per-iteration writes,
// so the span's iterations are re-divided into one batch-sized slot per
// core: slot i opens at the span's start plus i×BatchSlotWidth. When
// sibling cores batch the same span — the steady-backlog case, since all
// cores fall behind the same storage — their batch slots tile the span
// exactly like their per-iteration slots would have (k=1 reduces to
// WaitTurn) and staggered cores never write concurrently. Batching is
// opportunistic, though, so transiently uneven batch sizes can overlap
// slots: like the per-iteration schedule when a core falls behind, the
// slots are a contention heuristic, and correctness never depends on
// them. Like WaitTurn, a slot already in the past returns immediately.
func (s *SlotScheduler) WaitTurnBatch(first, last int64) {
	if last < first {
		first, last = last, first
	}
	start := s.epoch.Add(time.Duration(first) * s.interval).
		Add(time.Duration(s.index) * s.BatchSlotWidth(first, last))
	now := s.clock.Now()
	if wait := start.Sub(now); wait > 0 {
		s.clock.Sleep(wait)
	}
}
