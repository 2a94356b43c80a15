package obs

import (
	"math"
	"runtime/metrics"
	"sync"
)

// The Go runtime is the clients' other neighbour: clients, dedicated cores
// and the gateway share one heap and one scheduler, so a write-phase outlier
// may be a GC pause or a goroutine left runnable, not the flow window. The
// runtime collector reads runtime/metrics into samples allocated once, at
// registration, and emits them under the damaris_runtime_* families:
//
//   - damaris_runtime_gc_cycles_total: completed GC cycles;
//   - damaris_runtime_gc_pause_seconds: stop-the-world GC pauses;
//   - damaris_runtime_sched_latency_seconds: time goroutines spent runnable
//     before they ran;
//   - damaris_runtime_gc_cpu_seconds_total: CPU time the GC took;
//   - damaris_runtime_heap_bytes, damaris_runtime_heap_released_bytes: the
//     heap's mapped memory and the part of it returned to the OS. Their
//     difference is bench's heap_sys_mb (HeapSys - HeapReleased).
//
// The two histograms are summaries: quantiles and maximum read to the
// runtime's bucket edges, and a count. A gather allocates nothing of the
// collector's own.

// The runtime/metrics names the collector reads, by index into its samples.
const (
	rtGCCycles = iota
	rtGCPauses
	rtSchedLatencies
	rtGCCPU
	rtHeapReleased
	rtHeapObjects
	rtHeapUnused
	rtHeapFree
	rtSamples
)

var runtimeNames = [rtSamples]string{
	rtGCCycles:       "/gc/cycles/total:gc-cycles",
	rtGCPauses:       "/sched/pauses/total/gc:seconds",
	rtSchedLatencies: "/sched/latencies:seconds",
	rtGCCPU:          "/cpu/classes/gc/total:cpu-seconds",
	rtHeapReleased:   "/memory/classes/heap/released:bytes",
	rtHeapObjects:    "/memory/classes/heap/objects:bytes",
	rtHeapUnused:     "/memory/classes/heap/unused:bytes",
	rtHeapFree:       "/memory/classes/heap/free:bytes",
}

// runtimeSummary names a runtime histogram's summary samples once, so a
// gather builds no name.
type runtimeSummary struct{ name, count, max string }

func newRuntimeSummary(name string) runtimeSummary {
	return runtimeSummary{name, name + "_count", name + "_max"}
}

var (
	gcPauses      = newRuntimeSummary("damaris_runtime_gc_pause_seconds")
	schedLatency  = newRuntimeSummary("damaris_runtime_sched_latency_seconds")
	runtimeQuants = [...]struct {
		q      float64
		labels []string // shared by every gather's samples, which never change them
	}{
		{0.5, []string{"quantile", "0.5"}},
		{0.95, []string{"quantile", "0.95"}},
		{0.99, []string{"quantile", "0.99"}},
	}
)

// runtimeCollector is the plane's collector of the runtime's figures. Its
// mutex serializes concurrent gathers' reads into the one sample set.
type runtimeCollector struct {
	mu      sync.Mutex
	samples [rtSamples]metrics.Sample
}

func newRuntimeCollector() *runtimeCollector {
	r := &runtimeCollector{}
	for i := range r.samples {
		r.samples[i].Name = runtimeNames[i]
	}
	metrics.Read(r.samples[:]) // allocates the histograms' counts, reused by every later read
	return r
}

// Collect reads the runtime's metrics and emits them.
func (r *runtimeCollector) Collect(e *Emitter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.samples
	metrics.Read(s[:])
	e.Counter("damaris_runtime_gc_cycles_total", float64(s[rtGCCycles].Value.Uint64()))
	e.runtimeHistogram(gcPauses, s[rtGCPauses].Value.Float64Histogram())
	e.runtimeHistogram(schedLatency, s[rtSchedLatencies].Value.Float64Histogram())
	e.Counter("damaris_runtime_gc_cpu_seconds_total", s[rtGCCPU].Value.Float64())
	released := s[rtHeapReleased].Value.Uint64()
	heap := released + s[rtHeapObjects].Value.Uint64() + s[rtHeapUnused].Value.Uint64() + s[rtHeapFree].Value.Uint64()
	e.Gauge("damaris_runtime_heap_bytes", float64(heap))
	e.Gauge("damaris_runtime_heap_released_bytes", float64(released))
}

// runtimeHistogram emits a runtime histogram as a summary. Its last bucket
// may reach +Inf, so its quantiles are clamped to the top finite edge.
func (e *Emitter) runtimeHistogram(f runtimeSummary, h *metrics.Float64Histogram) {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	upper, top := h.Buckets[1:], h.Buckets[len(h.Buckets)-1]
	if math.IsInf(top, 1) {
		top = h.Buckets[len(h.Buckets)-2]
	}
	for _, q := range runtimeQuants {
		e.add(KindSummary, f.name, bucketEdge(h.Counts, upper, uint64(math.Ceil(q.q*float64(n))), math.Inf(-1), top), q.labels)
	}
	e.add(KindSummary, f.count, float64(n), nil)
	e.add(KindSummary, f.max, bucketEdge(h.Counts, upper, n, math.Inf(-1), top), nil)
}

// bucketEdge returns the upper edge of the bucket that holds the rank-th
// smallest of the counted observations, clamped to [lo, hi], or 0 when the
// counts hold none. Bucket i's upper edge is upper[i], +Inf past its end.
// It is the one quantile rule of every summary the registry emits.
func bucketEdge(counts []uint64, upper []float64, rank uint64, lo, hi float64) float64 {
	var cum uint64
	for i, c := range counts {
		if cum += c; c > 0 && cum >= max(rank, 1) {
			edge := math.Inf(1)
			if i < len(upper) {
				edge = upper[i]
			}
			return min(max(edge, lo), hi)
		}
	}
	return 0
}
