// Package obs is the live telemetry plane: a metrics registry (atomic
// counters, gauges and fixed-bucket streaming histograms with a 0-alloc
// observe path), pull-time collectors that turn the run's existing *Stats
// snapshot structs into scrapeable metric families, and an
// iteration-lifecycle tracer (trace.go) recording per-stage span events
// into a fixed-size ring.
//
// The paper's headline claim is *jitter-free* I/O; before this package the
// runtime could only argue it post-hoc, from the summary each subsystem
// printed at exit. The registry makes the same figures scrapeable while a
// run is in flight — and because damaris-run's end-of-run report is a gather
// of the same registry, the two can never disagree.
//
// Concurrency and determinism: the observe path (Counter.Add,
// Gauge.Set/Add, Histogram.Observe, Tracer.Record) is lock-free and
// allocation-free. Histogram sums accumulate in fixed-point micro-units, so
// an identical multiset of observations yields identical exposition bytes
// regardless of goroutine interleaving — the property
// TestExpositionDeterministic holds.
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

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which should be non-negative; Counter does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// sumScale is the fixed-point resolution histogram sums accumulate at.
// Integer accumulation is commutative, which is what keeps exposition bytes
// identical across goroutine interleavings of the same observation multiset
// (a float sum would depend on addition order).
const sumScale = 1e6

// Histogram is a fixed-bucket streaming histogram. Bounds are the
// inclusive upper edges of the finite buckets; one implicit overflow bucket
// catches everything above the last bound. Observe is lock-free and
// performs no allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Int64 // fixed-point, micro-units
	min    atomic.Int64 // math.Float64bits, valid when count > 0
	max    atomic.Int64
}

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

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics on an empty or unsorted bound set — a registration-time
// programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: NewHistogram bounds must ascend")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(int64(math.Float64bits(math.Inf(1))))
	h.max.Store(int64(math.Float64bits(math.Inf(-1))))
	return h
}

// Observe records one sample. 0 allocs, safe for concurrent use.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	// Round, don't truncate: truncation would contribute exactly 0 for
	// every sub-resolution observation, biasing _sum low on fast stages.
	// Rounding is still per-sample deterministic, so integer accumulation
	// stays commutative and exposition bytes stay interleaving-independent.
	h.sum.Add(int64(math.Round(x * sumScale)))
	for {
		cur := h.min.Load()
		if x >= math.Float64frombits(uint64(cur)) {
			break
		}
		if h.min.CompareAndSwap(cur, int64(math.Float64bits(x))) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if x <= math.Float64frombits(uint64(cur)) {
			break
		}
		if h.max.CompareAndSwap(cur, int64(math.Float64bits(x))) {
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
	return math.Float64frombits(uint64(h.min.Load()))
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(uint64(h.max.Load()))
}

// Spread returns Max-Min — the paper's unpredictability measure, live.
func (h *Histogram) Spread() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.Max() - h.Min()
}

// Buckets returns the per-bucket counts (finite buckets in bound order,
// then the overflow bucket).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// inside the bucket holding the target rank, clamped to the observed
// min/max. It returns 0 for an empty histogram. The estimate converges on
// the exact sample quantile as buckets narrow; exact per-stage percentiles
// come from the tracer's retained spans instead.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			lo := h.Min()
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.Max()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.Max()
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

// KindFromString resolves a kind's exposition name; ok is false for
// unknown names. The inverse of Kind.String, used when parsing scraped
// JSON expositions back into samples.
func KindFromString(name string) (Kind, bool) {
	switch name {
	case "counter":
		return KindCounter, true
	case "gauge":
		return KindGauge, true
	case "histogram":
		return KindHistogram, true
	case "summary":
		return KindSummary, true
	}
	return 0, false
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

// Registry holds directly registered metrics plus pull-time collectors. All
// methods are safe for concurrent use; the observe paths of the metrics it
// hands out never touch the registry lock.
type Registry struct {
	mu         sync.Mutex
	byKey      map[string]*entry
	entries    []*entry
	collectors []func(*Emitter)
}

type entry struct {
	name   string
	labels []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

func (r *Registry) lookup(name string, labels []string) (*entry, string) {
	sorted := sortLabels(labels)
	key := name + "\x01" + labelKey(sorted)
	e, ok := r.byKey[key]
	if !ok {
		e = &entry{name: name, labels: sorted}
		r.byKey[key] = e
		r.entries = append(r.entries, e)
	}
	return e, key
}

// Counter returns (registering on first use) the counter for name+labels.
// Labels are alternating key/value pairs. Asking for an existing name with
// a different metric kind panics — a registration programming error.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.g != nil || e.h != nil {
		panic("obs: " + name + " already registered with another kind")
	}
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns (registering on first use) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.c != nil || e.h != nil {
		panic("obs: " + name + " already registered with another kind")
	}
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns (registering on first use) the histogram for
// name+labels; bounds apply only on first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.c != nil || e.g != nil {
		panic("obs: " + name + " already registered with another kind")
	}
	if e.h == nil {
		e.h = NewHistogram(bounds)
	}
	return e.h
}

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

// Gather snapshots every metric and collector into a deterministic,
// (name, labels)-sorted sample list.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	collectors := append(make([]func(*Emitter), 0, len(r.collectors)), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{}
	for _, en := range entries {
		switch {
		case en.c != nil:
			e.add(KindCounter, en.name, float64(en.c.Value()), en.labels)
		case en.g != nil:
			e.add(KindGauge, en.name, float64(en.g.Value()), en.labels)
		case en.h != nil:
			e.histogram(en.name, en.h, en.labels)
		}
	}
	for _, fn := range collectors {
		fn(e)
	}
	sortSamples(e.samples)
	return e.samples
}

// sortSamples orders samples by (name, labels) — the canonical exposition
// order every rendering (and the federator's merged output) relies on.
func sortSamples(samples []Sample) {
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelKey(a.Labels) < labelKey(b.Labels)
	})
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
	counts := h.Buckets()
	var cum int64
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
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
