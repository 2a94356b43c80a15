package main

import (
	"sort"

	"damaris/internal/stats"
)

// metricDef declares one end-to-end metric.
//
// Declared metrics are the ones BENCHMARK.json lists under end_to_end: the
// driver wants each of them on every workload and holds it to a run-to-run
// spread and a set-to-set drift within its bound, so only quantities that
// survive this host's noise qualify — counts and CPU time. Wall-clock metrics
// do not: latencies drift 20-50 % with the neighbours' memory traffic and
// throughput drops 40 % when the sandbox throttles (README, sizing facts).
// They are measured and reported the same way, on the workloads On selects,
// but nothing gates them, and the driver sees them as client.* layer metrics.
type metricDef struct {
	Name  string
	Unit  string
	Lower bool // lower is better
	// Bound is the share of the old median by which the metric may worsen.
	// BENCHMARK.json declares it capped at 0.25, the driver's ceiling.
	Bound float64
	// Floor is the absolute worsening below which nothing is a regression.
	Floor    float64
	Declared bool
	// Timing says host steal can disturb the metric; counts never are.
	Timing bool
	// On selects the workloads the metric means something on (README
	// matrix); nil means all. A declared metric is reported everywhere, as
	// the driver demands, but gated only where On holds.
	On func(w workload) bool
	// Value computes the metric for one segment; n is its sample count.
	Value func(r *segResult) (value float64, n int)
}

func paced(w workload) bool     { return w.ComputeMS > 0 }
func burst(w workload) bool     { return w.ComputeMS == 0 }
func hasReader(w workload) bool { return w.Reader }
func noReader(w workload) bool  { return !w.Reader }

// pct is the p-th percentile (0..100) of xs, 0 when there are no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return stats.Percentile(sorted, p)
}

// median is the middle of xs (mean of the middle two for even counts).
func median(xs []float64) float64 { return pct(xs, 50) }

func percentileOf(samples func(*segResult) []float64, p float64) func(*segResult) (float64, int) {
	return func(r *segResult) (float64, int) {
		xs := samples(r)
		return pct(xs, p), len(xs)
	}
}

func phaseSamples(r *segResult) []float64 { return r.phases }
func ackSamples(r *segResult) []float64   { return r.acks }
func readSamples(r *segResult) []float64  { return r.reads }

// endToEnd is the fixed list of end-to-end metrics. Percentiles are chosen
// so that at least ten samples lie beyond them in every segment.
var endToEnd = []metricDef{
	// CPU seconds, not wall: throttling stretches wall time by a third, not
	// the work. One run's median of three still differs from the next run's
	// by up to 62 % (results/compare-a-b.txt), hence the issue's coarse bound.
	{Name: "setup_s", Unit: "s", Lower: true, Bound: 1, Floor: 0.1, Declared: true, Timing: true,
		Value: func(r *segResult) (float64, int) { return r.setupS, 1 }},
	{Name: "write_phase_p50_ms", Unit: "ms", Lower: true, Bound: 0.15, Timing: true, On: paced,
		Value: percentileOf(phaseSamples, 50)},
	{Name: "write_phase_p95_ms", Unit: "ms", Lower: true, Bound: 0.30, Timing: true, On: paced,
		Value: percentileOf(phaseSamples, 95)},
	{Name: "ack_p50_ms", Unit: "ms", Lower: true, Bound: 0.15, Timing: true,
		Value: percentileOf(ackSamples, 50)},
	{Name: "ack_p90_ms", Unit: "ms", Lower: true, Bound: 0.30, Timing: true,
		Value: percentileOf(ackSamples, 90)},
	{Name: "durable_mb_s", Unit: "MB/s", Bound: 0.10, Timing: true, On: burst,
		Value: func(r *segResult) (float64, int) { return float64(r.timedBytes) / 1e6 / r.windowS, 1 }},
	{Name: "read_p50_ms", Unit: "ms", Lower: true, Bound: 0.15, Timing: true, On: hasReader,
		Value: percentileOf(readSamples, 50)},
	{Name: "read_p95_ms", Unit: "ms", Lower: true, Bound: 0.30, Timing: true, On: hasReader,
		Value: percentileOf(readSamples, 95)},
	{Name: "cpu_s_per_user_gb", Unit: "s/GB", Lower: true, Bound: 0.25, Declared: true, Timing: true,
		Value: func(r *segResult) (float64, int) { return r.cpuS / (float64(r.timedBytes) / 1e9), 1 }},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Lower: true, Bound: 0.005, Declared: true,
		Value: func(r *segResult) (float64, int) { return float64(r.store.PutBytes) / float64(r.userBytes), 1 }},
	// Beside a reader the reader's heap swamps the writers' (3.6 against
	// 0.03-0.2): see gateway.alloc_bytes_per_read_byte.
	{Name: "alloc_bytes_per_user_byte", Unit: "ratio", Lower: true, Bound: 0.15, Declared: true, On: noReader,
		Value: func(r *segResult) (float64, int) { return float64(r.alloc) / float64(r.timedBytes), 1 }},
	{Name: "heap_sys_mb", Unit: "MB", Lower: true, Bound: 0.15, Declared: true,
		Value: func(r *segResult) (float64, int) { return float64(r.heapSys) / 1e6, 1 }},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func (d metricDef) on(w workload) bool { return d.On == nil || d.On(w) }

// reportedOn says whether the metric is reported on the workload.
func (d metricDef) reportedOn(w workload) bool { return d.Declared || d.on(w) }

// metric is one reported number: the median over segments, the range the
// segments spanned and the number of samples behind it.
type metric struct {
	Name      string     `json:"name"`
	Value     float64    `json:"value"`
	Unit      string     `json:"unit"`
	N         int        `json:"n"`
	Spread    [2]float64 `json:"spread"`
	Gated     bool       `json:"gated,omitempty"`
	Disturbed bool       `json:"disturbed,omitempty"`
}

// endToEndMetrics computes the workload's end-to-end metrics over its
// segments. Timing metrics inherit the workload's disturbed flag.
func endToEndMetrics(w workload, segs []*segResult, disturbed bool) []metric {
	var out []metric
	for _, d := range endToEnd {
		if !d.reportedOn(w) {
			continue
		}
		var values []float64
		total := 0
		for _, r := range segs {
			v, n := d.Value(r)
			values = append(values, v)
			total += n
		}
		out = append(out, metric{
			Name: d.Name, Unit: d.Unit, Value: median(values), N: total,
			Spread: [2]float64{stats.Min(values), stats.Max(values)},
			Gated:  d.Declared && d.on(w), Disturbed: disturbed && d.Timing,
		})
	}
	return out
}
