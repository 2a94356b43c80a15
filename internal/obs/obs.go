// Package obs is the live telemetry plane: a metrics registry of pull-time
// collectors that turn the run's existing *Stats snapshot structs into
// scrapeable metric families, fixed-bucket streaming histograms with a
// 0-alloc observe path, and an iteration-lifecycle tracer (trace.go)
// recording per-stage span events into a fixed-size ring.
//
// The paper's headline claim is *jitter-free* I/O; before this package the
// runtime could only argue it post-hoc, from the summary each subsystem
// printed at exit. The registry makes the same figures scrapeable while a
// run is in flight — and because damaris-run's end-of-run report is a gather
// of the same registry, the two can never disagree.
//
// Concurrency and determinism: the observe path is allocation-free —
// Histogram.Observe lock-free, Tracer.Record one short critical section
// that writes a whole span. Histogram sums accumulate
// in fixed-point micro-units, so an identical multiset of observations
// yields identical exposition bytes regardless of goroutine interleaving —
// the property TestExpositionDeterministic holds.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"damaris/internal/stats"
)

// sumScale is the fixed-point resolution histogram sums accumulate at.
// Integer accumulation is commutative, which is what keeps exposition bytes
// identical across goroutine interleavings of the same observation multiset
// (a float sum would depend on addition order).
const sumScale = 1e6

// maxBounds is the most finite buckets a Histogram holds: its counts are a
// fixed array, so the zero value needs no allocation.
const maxBounds = 33

// durationBounds are the zero Histogram's bounds.
var durationBounds = DefaultDurationBuckets()

// Histogram is a fixed-bucket streaming histogram. Bounds are the
// inclusive upper edges of the finite buckets; one implicit overflow bucket
// catches everything above the last bound. The zero value is ready to use
// and buckets by DefaultDurationBuckets; NewHistogram takes other bounds.
// Observe is lock-free and performs no allocation.
type Histogram struct {
	bounds []float64                   // nil: durationBounds
	counts [maxBounds + 1]atomic.Int64 // one per bound, then the +Inf bucket
	count  atomic.Int64
	sum    atomic.Int64 // fixed-point, micro-units
	// min and max hold math.Float64bits of the extremes XOR that of +Inf
	// and −Inf, so that the zero value reads +Inf and −Inf.
	min, max atomic.Uint64
}

var posInf, negInf = math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))

// DefaultDurationBuckets spans 1µs to 100s, four buckets per decade — the
// range of everything the middleware times, from a counter bump to a
// browned-out flush.
func DefaultDurationBuckets() []float64 {
	var b []float64
	for _, base := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10} {
		for _, m := range []float64{1, 2.5, 5, 7.5} {
			b = append(b, base*m)
		}
	}
	return append(b, 100)
}

// CountBuckets bounds counts — queue and ring depths, batch sizes, epochs:
// one bucket per integer to 16, so small counts' quantiles are exact, then
// two per doubling to 4096.
func CountBuckets() []float64 {
	var b []float64
	for i := 0; i <= 16; i++ {
		b = append(b, float64(i))
	}
	for v := 16.0; v < 4096; v *= 2 {
		b = append(b, 1.5*v, 2*v)
	}
	return b
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics on an empty, unsorted or over-long bound set — a
// registration-time programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 || len(bounds) > maxBounds {
		panic(fmt.Sprintf("obs: NewHistogram needs 1 to %d bounds", maxBounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: NewHistogram bounds must ascend")
		}
	}
	return &Histogram{bounds: append([]float64(nil), bounds...)}
}

// edges returns the histogram's bounds.
func (h *Histogram) edges() []float64 {
	if h.bounds == nil {
		return durationBounds
	}
	return h.bounds
}

// Observe records one sample. 0 allocs, safe for concurrent use.
func (h *Histogram) Observe(x float64) {
	h.counts[sort.SearchFloat64s(h.edges(), x)].Add(1)
	h.count.Add(1)
	// Round, don't truncate: truncation would contribute exactly 0 for
	// every sub-resolution observation, biasing _sum low on fast stages.
	// Rounding is still per-sample deterministic, so integer accumulation
	// stays commutative and exposition bytes stay interleaving-independent.
	h.sum.Add(int64(math.Round(x * sumScale)))
	for {
		cur := h.min.Load()
		if x >= math.Float64frombits(cur^posInf) || h.min.CompareAndSwap(cur, math.Float64bits(x)^posInf) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if x <= math.Float64frombits(cur^negInf) || h.max.CompareAndSwap(cur, math.Float64bits(x)^negInf) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the fixed-point-accumulated total of all observations.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / sumScale }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load() ^ posInf)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load() ^ negInf)
}

// Buckets returns the per-bucket counts (finite buckets in bound order,
// then the overflow bucket).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.edges())+1)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Summary condenses the histogram into a stats.Summary: N, Mean (to the
// sum's resolution), Min and Max as observed, and each quantile the upper
// edge of the bucket that holds its rank, clamped to [Min, Max] — bucketEdge,
// the rule the runtime's summaries follow. On CountBuckets, quantiles of
// counts up to 16 are exact. Stddev stays 0: no squares are kept.
func (h *Histogram) Summary() stats.Summary {
	bounds := h.edges()
	var buf [maxBounds + 1]uint64
	counts := buf[:len(bounds)+1]
	var n uint64
	for i := range counts {
		counts[i] = uint64(h.counts[i].Load())
		n += counts[i]
	}
	if n == 0 {
		return stats.Summary{}
	}
	s := stats.Summary{N: int(n), Mean: h.Sum() / float64(n), Min: h.Min(), Max: h.Max()}
	q := func(p float64) float64 {
		return bucketEdge(counts, bounds, uint64(math.Ceil(p*float64(n))), s.Min, s.Max)
	}
	s.Median, s.P95, s.P99 = q(0.5), q(0.95), q(0.99)
	return s
}

// Kind labels a metric family for exposition.
type Kind uint8

// Family kinds, mapping onto the Prometheus text-format TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSummary:
		return "summary"
	default:
		return "untyped"
	}
}

// Sample is one exposition data point: a family name, sorted label pairs
// and a value.
type Sample struct {
	Name   string
	Labels []string // alternating key, value; sorted by key
	Kind   Kind
	Value  float64
}

// labelKey renders the sorted label pairs for ordering and dedup.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return strings.Join(labels, "\x00")
}

// sortLabels sorts alternating key/value pairs by key, in place-safe copy.
// It panics on an odd-length label list — a call-site programming error.
func sortLabels(labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	if len(labels) <= 2 {
		return append([]string(nil), labels...)
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	out := make([]string, 0, len(labels))
	for _, p := range kvs {
		out = append(out, p.k, p.v)
	}
	return out
}

// Registry holds pull-time collectors: every metric in the tree, the
// tracer's stage histograms included, is emitted by one at Gather. All
// methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Emitter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers a pull-time collector, invoked on every Gather with a
// fresh Emitter. Collectors are how the run's existing *Stats snapshot
// structs join the registry: the live scrape and the end-of-run report are
// both a Gather, so the two cannot diverge.
func (r *Registry) Collect(fn func(*Emitter)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Gather runs every collector into a deterministic, (name, labels)-sorted
// sample list.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	collectors := append(make([]func(*Emitter), 0, len(r.collectors)), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{}
	for _, fn := range collectors {
		fn(e)
	}
	sort.SliceStable(e.samples, func(i, j int) bool {
		a, b := e.samples[i], e.samples[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelKey(a.Labels) < labelKey(b.Labels)
	})
	return e.samples
}

// Emitter receives samples from collectors during Gather.
type Emitter struct {
	samples []Sample
}

func (e *Emitter) add(kind Kind, name string, v float64, labels []string) {
	e.samples = append(e.samples, Sample{Name: name, Labels: labels, Kind: kind, Value: v})
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name string, v float64, labels ...string) {
	e.add(KindCounter, name, v, sortLabels(labels))
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name string, v float64, labels ...string) {
	e.add(KindGauge, name, v, sortLabels(labels))
}

// Summary emits a stats.Summary as a Prometheus-style summary family:
// median/p95/p99 quantiles plus _sum, _count, _min and _max companions —
// min and max because Spread (max−min) is the paper's jitter figure.
func (e *Emitter) Summary(name string, s stats.Summary, labels ...string) {
	ls := sortLabels(labels)
	q := func(qv string, v float64) {
		e.add(KindSummary, name, v, append(append([]string(nil), ls...), "quantile", qv))
	}
	q("0.5", s.Median)
	q("0.95", s.P95)
	q("0.99", s.P99)
	e.add(KindSummary, name+"_sum", s.Mean*float64(s.N), ls)
	e.add(KindSummary, name+"_count", float64(s.N), ls)
	e.add(KindSummary, name+"_min", s.Min, ls)
	e.add(KindSummary, name+"_max", s.Max, ls)
}

// histogram expands one histogram into cumulative _bucket samples plus
// _count, _sum, _min and _max.
func (e *Emitter) histogram(name string, h *Histogram, ls []string) {
	bounds := h.edges()
	var cum int64
	for i, n := range h.Buckets() {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		e.add(KindHistogram, name+"_bucket", float64(cum),
			append(append([]string(nil), ls...), "le", le))
	}
	e.add(KindHistogram, name+"_count", float64(h.Count()), ls)
	e.add(KindHistogram, name+"_sum", h.Sum(), ls)
	e.add(KindHistogram, name+"_min", h.Min(), ls)
	e.add(KindHistogram, name+"_max", h.Max(), ls)
}

// formatFloat renders a value the same way everywhere — shortest exact
// representation, the stability anchor for byte-identical exposition.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
