// Package stats provides the small statistical toolkit used throughout the
// Damaris reproduction: summary statistics over duration/throughput samples,
// percentiles and worker busy-time bookkeeping. Streaming distributions are
// obs.Histogram, which condenses into the same Summary.
//
// The paper's evaluation reports averages, minima, maxima and variability
// (jitter) of write-phase durations; this package computes those figures for
// the middleware's runs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Stddev float64 // population standard deviation
	Median float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary over xs. It returns a zero Summary when xs is
// empty. One sorted copy of the sample feeds Min, Max, Median, P95 and P99
// alike, so every order statistic is derived from the same state instead of
// each re-scanning (or re-validating) the input on its own.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{N: len(sorted), Min: sorted[0], Max: sorted[len(sorted)-1]}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(sorted)))
	s.Median = percentileSorted(sorted, 50)
	s.P95 = percentileSorted(sorted, 95)
	s.P99 = percentileSorted(sorted, 99)
	return s
}

// Spread returns Max-Min, the paper's measure of unpredictability
// ("difference between the fastest and the slowest phase").
func (s Summary) Spread() float64 { return s.Max - s.Min }

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.N, s.Mean, s.Min, s.Max, s.Stddev)
}

// Percentile returns the p-th percentile (0..100) of sorted (ascending)
// data using linear interpolation between closest ranks. sorted must be
// non-empty and already sorted ascending; Percentile panics if it is empty.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile without the emptiness re-check, for
// callers (Summarize) that have already validated the sample once.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// WorkerSet is the busy-time bookkeeping of a fixed set of workers — the
// persist pipeline's writers, the DSF encode pool's workers, a dedicated
// core's shard loops: seconds spent working per slot, and their sum as a
// share of the whole set running for a wall interval. A WorkerSet is not
// internally locked: its owner guards it with the mutex that guards its
// other counters.
type WorkerSet struct {
	busy []float64 // per-slot seconds spent working
}

// NewWorkerSet returns the bookkeeping of n workers, slots 0..n-1.
func NewWorkerSet(n int) WorkerSet { return WorkerSet{busy: make([]float64, n)} }

// Workers returns the number of slots.
func (ws *WorkerSet) Workers() int { return len(ws.busy) }

// AddBusy charges seconds of work to a slot.
func (ws *WorkerSet) AddBusy(slot int, seconds float64) { ws.busy[slot] += seconds }

// Busy returns a copy of the per-slot busy seconds.
func (ws *WorkerSet) Busy() []float64 { return append([]float64(nil), ws.busy...) }

// Utilization returns Σbusy/(workers×wall): time spent working relative to
// every worker running for the whole wall interval.
func (ws *WorkerSet) Utilization(wall float64) float64 {
	if len(ws.busy) == 0 || wall <= 0 {
		return 0
	}
	var sum float64
	for _, b := range ws.busy {
		sum += b
	}
	return sum / (float64(len(ws.busy)) * wall)
}
