package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"damaris/internal/stats"
)

func TestLabelOrderCanonical(t *testing.T) {
	e := &Emitter{}
	e.Counter("m", 1, "b", "2", "a", "1")
	e.Counter("m", 1, "a", "1", "b", "2")
	if a, b := labelKey(e.samples[0].Labels), labelKey(e.samples[1].Labels); a != b {
		t.Fatalf("label order changed metric identity: %q vs %q", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	e.Counter("odd", 1, "only-key")
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
	if s := h.Sum(); s != 556.5 {
		t.Fatalf("sum = %g, want 556.5", s)
	}
}

// Summary's quantiles are bucket edges clamped to the observed extremes, so
// they never leave [Min, Max]; on integer bounds, integer samples' quantiles
// are exact.
func TestHistogramSummary(t *testing.T) {
	var empty Histogram
	if s := empty.Summary(); s != (stats.Summary{}) {
		t.Errorf("empty: %+v, want the zero Summary", s)
	}

	var one Histogram // the zero value buckets durations
	one.Observe(0.003)
	if s := one.Summary(); s != (stats.Summary{N: 1, Mean: 0.003, Min: 0.003, Max: 0.003, Median: 0.003, P95: 0.003, P99: 0.003}) {
		t.Errorf("single value: %+v", s)
	}

	same := NewHistogram(CountBuckets())
	for range 10 {
		same.Observe(3)
	}
	if s := same.Summary(); s != (stats.Summary{N: 10, Mean: 3, Min: 3, Max: 3, Median: 3, P95: 3, P99: 3}) {
		t.Errorf("all-equal integers: %+v", s)
	}

	counts := NewHistogram(CountBuckets())
	for _, x := range []float64{0, 1, 1, 2, 2, 2, 5, 9, 9, 12} {
		counts.Observe(x)
	}
	if s := counts.Summary(); s.Min != 0 || s.Median != 2 || s.P95 != 12 || s.P99 != 12 || s.Max != 12 || s.Mean != 4.3 {
		t.Errorf("integers: %+v, want exact quantiles 2/12/12", s)
	}

	inf := NewHistogram([]float64{1, 10})
	for _, x := range []float64{0.5, 0.5, 0.5, 250} {
		inf.Observe(x)
	}
	s := inf.Summary()
	if s.Min != 0.5 || s.Median != 1 || s.P99 != 250 || s.Max != 250 {
		t.Errorf("+Inf bucket: %+v, want median 1 (clamped edge) and p99 250 (the max)", s)
	}
	if s.Median < s.Min || s.P95 > s.Max {
		t.Errorf("+Inf bucket: quantiles %+v outside [min, max]", s)
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
		h := NewHistogram(DefaultDurationBuckets())
		var c atomic.Int64
		r := NewRegistry()
		r.Collect(func(e *Emitter) {
			e.histogram("lat_seconds", h, nil)
			e.Counter("samples_total", float64(c.Load()))
		})
		order := rand.New(rand.NewSource(seed)).Perm(n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < n; j += workers {
					h.Observe(1e-6 * float64(1+order[j]))
					c.Add(1)
				}
			}()
		}
		wg.Wait()
		return r
	}
	var prom [2]bytes.Buffer
	for i, seed := range []int64{3, 77} {
		if err := feed(seed).WritePrometheus(&prom[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(prom[0].Bytes(), prom[1].Bytes()) {
		t.Error("Prometheus exposition bytes differ across interleavings")
	}
}

// The observe paths run inside the pipeline they measure — on the dedicated
// core's event loop and in every persist writer — so each must stay at zero
// allocations per call, or telemetry perturbs what it reports. Both are
// pure atomics (no sync.Pool), so the count holds under -race too.
func TestObservePathsDoNotAllocate(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets())
	tr := NewTracer(1 << 10)
	start := time.Now()
	x := 1e-4
	for name, observe := range map[string]func(){
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
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	r := NewRegistry()
	r.Collect(func(e *Emitter) {
		e.Counter("a_total", 2, "k", `va"l`)
		e.Gauge("b", 3)
		e.histogram("h_seconds", h, nil)
	})
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
	r.Collect(func(e *Emitter) {
		e.Counter("good_total", 1)
		e.Summary("dur_epochs", stats.Summarize([]float64{1, 2, 3}))
	})
	if err := r.CheckExposition(); err != nil {
		t.Fatalf("clean registry: %v", err)
	}
	// A gauge named like the summary's auto-emitted _max companion is the
	// collision class that once broke the aggregate families: same name,
	// same labels, two values.
	r.Collect(func(e *Emitter) { e.Gauge("dur_epochs_max", 9) })
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
	r.Collect(func(*Emitter) {})
	if r.Gather() != nil {
		t.Fatal("nil registry gathered samples")
	}
}
