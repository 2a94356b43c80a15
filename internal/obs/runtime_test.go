package obs

import (
	"runtime"
	"strings"
	"testing"
)

// A gather of the runtime collector allocates nothing: its samples, their
// histograms, names and labels were all allocated when it was registered.
func TestRuntimeCollectorAllocs(t *testing.T) {
	r := newRuntimeCollector()
	e := &Emitter{samples: make([]Sample, 0, 64)}
	if n := testing.AllocsPerRun(100, func() {
		e.samples = e.samples[:0]
		r.Collect(e)
	}); n != 0 {
		t.Errorf("runtime collector allocates %v times per gather, want 0", n)
	}
}

// A plane's registry carries the runtime's figures, and they read what the
// runtime did: a forced collection counts a cycle and a pause, and the heap
// holds at least what it released.
func TestPlaneRuntimeFamilies(t *testing.T) {
	p := NewPlane(16)
	runtime.GC()
	got := map[string]float64{}
	for _, s := range p.Registry().Gather() {
		if strings.HasPrefix(s.Name, "damaris_runtime_") {
			got[s.Name+strings.Join(s.Labels, "=")] = s.Value
		}
	}
	for _, name := range []string{
		"damaris_runtime_gc_cycles_total", "damaris_runtime_gc_pause_seconds_count",
		"damaris_runtime_gc_pause_seconds_max", "damaris_runtime_gc_pause_seconds" + "quantile=0.5",
		"damaris_runtime_heap_bytes",
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0 after a collection", name, got[name])
		}
	}
	for _, name := range []string{"damaris_runtime_sched_latency_seconds_count", "damaris_runtime_gc_cpu_seconds_total",
		"damaris_runtime_heap_released_bytes"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%s missing from the gather", name)
		}
	}
	if p50, p99, max := got["damaris_runtime_gc_pause_seconds"+"quantile=0.5"], got["damaris_runtime_gc_pause_seconds"+"quantile=0.99"],
		got["damaris_runtime_gc_pause_seconds_max"]; p50 > p99 || p99 > max {
		t.Errorf("pause quantiles p50 %v, p99 %v, max %v out of order", p50, p99, max)
	}
	if got["damaris_runtime_heap_released_bytes"] > got["damaris_runtime_heap_bytes"] {
		t.Errorf("heap released %v exceeds the heap %v", got["damaris_runtime_heap_released_bytes"], got["damaris_runtime_heap_bytes"])
	}
	if err := p.Registry().CheckExposition(); err != nil {
		t.Error(err)
	}
}
