package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "plane", "read")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "plane", "read"); again != c {
		t.Fatal("same name+labels returned a different counter")
	}
	if other := r.Counter("reqs_total", "plane", "write"); other == c {
		t.Fatal("different labels returned the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed metric identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	r.Counter("odd", "only-key")
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	want := []int64{2, 1, 1, 1} // 1 is an inclusive upper edge
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Min() != 0.5 || h.Max() != 500 {
		t.Fatalf("min/max = %g/%g, want 0.5/500", h.Min(), h.Max())
	}
	if h.Spread() != 499.5 {
		t.Fatalf("spread = %g, want 499.5", h.Spread())
	}
	if s := h.Sum(); s != 556.5 {
		t.Fatalf("sum = %g, want 556.5", s)
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(1e-3)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("q%.2f = %g outside [%g, %g]", q, v, h.Min(), h.Max())
		}
	}
	if NewHistogram([]float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

// TestExpositionDeterministic is the satellite-3 determinism gate: identical
// observation multisets must produce identical bucket counts and identical
// exposition bytes regardless of which goroutine observed which sample in
// what order. Run under -race this also exercises the lock-free observe path.
func TestExpositionDeterministic(t *testing.T) {
	const n = 5000
	const workers = 8
	feed := func(seed int64) *Registry {
		r := NewRegistry()
		h := r.Histogram("lat_seconds", DefaultDurationBuckets())
		c := r.Counter("samples_total")
		order := rand.New(rand.NewSource(seed)).Perm(n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < n; j += workers {
					h.Observe(1e-6 * float64(1+order[j]))
					c.Inc()
				}
			}()
		}
		wg.Wait()
		return r
	}
	var prom [2]bytes.Buffer
	var js [2]bytes.Buffer
	for i, seed := range []int64{3, 77} {
		r := feed(seed)
		if err := r.WritePrometheus(&prom[i]); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(prom[0].Bytes(), prom[1].Bytes()) {
		t.Error("Prometheus exposition bytes differ across interleavings")
	}
	if !bytes.Equal(js[0].Bytes(), js[1].Bytes()) {
		t.Error("JSON exposition bytes differ across interleavings")
	}
}

// The observe paths run inside the pipeline they measure — on the dedicated
// core's event loop and in every persist writer — so each must stay at zero
// allocations per call, or telemetry perturbs what it reports. All four are
// pure atomics (no sync.Pool), so the count holds under -race too.
func TestObservePathsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events_total")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat_seconds", DefaultDurationBuckets())
	tr := NewTracer(1 << 10)
	start := time.Now()
	x := 1e-4
	for name, observe := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Gauge.Set":         func() { g.Set(7) },
		"Histogram.Observe": func() { h.Observe(x); x += 1e-6 },
		"Tracer.Record": func() {
			tr.Record(StagePersist, 3, 42, start, time.Millisecond, 4096, false)
		},
	} {
		if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, budget is 0", name, allocs)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "k", `va"l`).Add(2)
	r.Gauge("b").Set(3)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\n",
		`a_total{k="va\"l"} 2` + "\n",
		"# TYPE b gauge\n",
		"# TYPE h_seconds histogram\n",
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_count 1\n",
		"h_seconds_sum 0.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE h_seconds "); n != 1 {
		t.Errorf("histogram family has %d TYPE lines, want 1", n)
	}
}

func TestHistogramSumRounds(t *testing.T) {
	h := NewHistogram([]float64{1})
	for i := 0; i < 1000; i++ {
		h.Observe(0.6e-6) // below the 1µs fixed-point resolution
	}
	if got, want := h.Sum(), 1000e-6; got != want {
		t.Fatalf("sub-resolution sum = %g, want %g (truncation would give 0)", got, want)
	}
}

func TestCheckExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("good_total").Inc()
	r.Collect(func(e *Emitter) {
		e.Summary("dur_epochs", stats.Summarize([]float64{1, 2, 3}))
	})
	if err := r.CheckExposition(); err != nil {
		t.Fatalf("clean registry: %v", err)
	}
	// A gauge named like the summary's auto-emitted _max companion is the
	// collision class that once broke the aggregate families: same name,
	// same labels, two values.
	r.Gauge("dur_epochs_max").Set(9)
	if err := r.CheckExposition(); err == nil {
		t.Fatal("colliding _max gauge not detected")
	}

	// With disjoint labels there is no duplicate sample, but the gauge's
	// own TYPE block splits the summary family in two.
	r2 := NewRegistry()
	r2.Collect(func(e *Emitter) {
		e.Summary("dur_epochs", stats.Summarize([]float64{1}), "mode", "node")
		e.Gauge("dur_epochs_max", 9, "shard", "0")
	})
	if err := r2.CheckExposition(); err == nil {
		t.Fatal("split TYPE block not detected")
	}
}

func TestCollectors(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.Collect(func(e *Emitter) {
		calls++
		e.Counter("pulled_total", 9, "src", "snap")
	})
	samples := r.Gather()
	if calls != 1 {
		t.Fatalf("collector ran %d times in one gather", calls)
	}
	found := false
	for _, s := range samples {
		if s.Name == "pulled_total" && s.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("collector sample missing from gather: %+v", samples)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	r.Collect(func(*Emitter) {})
	if r.Gather() != nil {
		t.Fatal("nil registry gathered samples")
	}
}
