// Package stats provides the small statistical toolkit used throughout the
// Damaris reproduction: summary statistics over duration/throughput samples,
// incremental accumulators and percentiles.
//
// The paper's evaluation reports averages, minima, maxima and variability
// (jitter) of write-phase durations; this package computes those figures for
// both the real middleware runs and the simulated experiments.
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

// CV returns the coefficient of variation (stddev/mean), a scale-free jitter
// measure. It returns 0 for a zero mean.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

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

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
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

// Accumulator computes running statistics without retaining samples, using
// Welford's online algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations added so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the population variance (0 when n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// Stddev returns the population standard deviation.
func (a *Accumulator) Stddev() float64 { return math.Sqrt(a.Variance()) }

// Summary converts the accumulator to a Summary. Median and percentiles are
// not available online and are left zero.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max, Stddev: a.Stddev()}
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
