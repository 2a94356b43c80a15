package control

import (
	"fmt"
	"testing"
	"time"
)

// drive feeds n identical-cadence samples, one per decision interval, drawn
// from latencies cycled in order.
func drive(t *testing.T, tn *Tuner, clk *ManualClock, latencies []float64, interval float64, n int) []Sizes {
	t.Helper()
	out := make([]Sizes, 0, n)
	for i := 0; i < n; i++ {
		clk.Advance(DefaultInterval)
		s, _ := tn.Observe(Sample{
			FlushLatency: latencies[i%len(latencies)],
			Interval:     interval,
		})
		out = append(out, s)
	}
	return out
}

func newAuto(t *testing.T, clk Clock, ini Sizes, lim Limits) *Tuner {
	t.Helper()
	tn, err := New(Config{Mode: "auto", Initial: ini, Limits: lim, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestStaticModeNeverMoves(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn, err := New(Config{Mode: "static", Initial: Sizes{Writers: 3, Window: 5, Encode: 2}, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		clk.Advance(time.Second)
		s, changed := tn.Observe(Sample{FlushLatency: 10, Interval: 0.001})
		if changed {
			t.Fatal("static tuner changed sizes")
		}
		if s != (Sizes{Writers: 3, Window: 5, Encode: 2}) {
			t.Fatalf("static sizes drifted to %+v", s)
		}
	}
	if st := tn.Stats(); st.Resizes != 0 || st.Mode != "static" {
		t.Fatalf("static stats = %+v", st)
	}
}

func TestNilTunerIsStatic(t *testing.T) {
	var tn *Tuner
	if tn.Mode() != "static" {
		t.Fatalf("nil mode = %q", tn.Mode())
	}
	if s, changed := tn.Observe(Sample{FlushLatency: 1}); changed || s != (Sizes{}) {
		t.Fatalf("nil Observe = %+v %v", s, changed)
	}
	if st := tn.Stats(); st.Decisions != 0 {
		t.Fatalf("nil stats = %+v", st)
	}
}

// Slow storage: flush latency far above the iteration interval must open the
// window and writer pool up to the bounds, never past them.
func TestSlowStoreOpensToBounds(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	lim := Limits{MaxWriters: 4, MaxWindow: 6, MaxEncode: 4}
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 1}, lim)
	sizes := drive(t, tn, clk, []float64{0.100}, 0.005, 40)
	last := sizes[len(sizes)-1]
	if last.Writers != lim.MaxWriters || last.Window != lim.MaxWindow {
		t.Fatalf("slow store settled at %+v, want writers=%d window=%d", last, lim.MaxWriters, lim.MaxWindow)
	}
	for _, s := range sizes {
		if s.Writers < 1 || s.Writers > lim.MaxWriters || s.Window < 1 || s.Window > lim.MaxWindow {
			t.Fatalf("sizes %+v escaped limits %+v", s, lim)
		}
	}
}

// Fast storage: the controller must shrink toward the synchronous baseline
// (one writer, window 1).
func TestFastStoreShrinksToBaseline(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 6, Window: 8}, Limits{MaxWriters: 8, MaxWindow: 8})
	sizes := drive(t, tn, clk, []float64{0.0001}, 0.050, 40)
	last := sizes[len(sizes)-1]
	if last.Writers != 1 || last.Window != 1 {
		t.Fatalf("fast store settled at %+v, want the synchronous baseline 1/1", last)
	}
}

// Oscillating injected latency (the store.Fault pattern) must settle: the
// EWMA plus single-step moves converge to the smoothed fixed point instead
// of chasing each spike.
func TestOscillatingLatencyConverges(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	lim := Limits{MaxWriters: 8, MaxWindow: 12, MaxEncode: 4}
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 1}, lim)
	// Alternating 20ms/60ms flushes against a 10ms interval: smoothed ratio
	// sits near 4, so the window should settle at 5 and writers at 4.
	sizes := drive(t, tn, clk, []float64{0.020, 0.060}, 0.010, 80)
	last := sizes[len(sizes)-1]
	for _, s := range sizes[len(sizes)-20:] {
		if s != last {
			t.Fatalf("sizes still moving near the end: %+v vs %+v", s, last)
		}
	}
	if last.Window < 4 || last.Window > 6 || last.Writers < 3 || last.Writers > 5 {
		t.Fatalf("oscillating latency settled at %+v, want window≈5 writers≈4", last)
	}
	if st := tn.Stats(); st.Steady < 19 {
		t.Fatalf("Steady = %d, want the settled tail counted", st.Steady)
	}
}

// The controller is a pure function of the sample+clock sequence: two tuners
// fed identically must produce identical decision sequences.
func TestDeterministicDecisions(t *testing.T) {
	run := func() []Sizes {
		clk := NewManualClock(time.Unix(0, 0))
		tn := newAuto(t, clk, Sizes{Writers: 2, Window: 2, Encode: 2}, Limits{})
		var out []Sizes
		lats := []float64{0.030, 0.010, 0.080, 0.002}
		for i := 0; i < 60; i++ {
			clk.Advance(100 * time.Millisecond)
			s, _ := tn.Observe(Sample{
				FlushLatency:  lats[i%len(lats)],
				Interval:      0.008,
				EncodeLatency: 0.004,
				StoreLatency:  0.002,
				RingFill:      float64(i%3) / 4,
			})
			out = append(out, s)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Encode pool: grows while encoding dominates the store put, shrinks when
// the streamer dominates, and never tears the pool down below one worker.
func TestEncodeFeedback(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 1, Encode: 2}, Limits{MaxEncode: 4})
	obs := func(enc, put float64, n int) Sizes {
		var s Sizes
		for i := 0; i < n; i++ {
			clk.Advance(DefaultInterval)
			s, _ = tn.Observe(Sample{FlushLatency: 0.001, Interval: 0.010,
				EncodeLatency: enc, StoreLatency: put})
		}
		return s
	}
	if s := obs(0.010, 0.001, 20); s.Encode != 4 {
		t.Fatalf("encode-bound workload settled at %d encode workers, want the cap 4", s.Encode)
	}
	if s := obs(0.0001, 0.010, 40); s.Encode != 1 {
		t.Fatalf("store-bound workload settled at %d encode workers, want the floor 1", s.Encode)
	}
}

// A serial deployment (Encode 0) has no pool to resize: the encode dimension
// must stay untouched.
func TestEncodeDimensionOffStaysOff(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 1, Encode: 0}, Limits{})
	for i := 0; i < 20; i++ {
		clk.Advance(DefaultInterval)
		s, _ := tn.Observe(Sample{FlushLatency: 0.05, Interval: 0.001,
			EncodeLatency: 0.1, StoreLatency: 0.001})
		if s.Encode != 0 {
			t.Fatalf("encode dimension moved to %d with no pool", s.Encode)
		}
	}
}

// A saturated aggregation fan-in ring vetoes window growth: queueing more
// epochs behind a slow merge hides nothing.
func TestRingSaturationVetoesWindowGrowth(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 2}, Limits{MaxWindow: 10, MaxWriters: 10})
	for i := 0; i < 30; i++ {
		clk.Advance(DefaultInterval)
		s, _ := tn.Observe(Sample{FlushLatency: 0.100, Interval: 0.001, RingFill: 1})
		if s.Window > 2 {
			t.Fatalf("window grew to %d behind a saturated ring", s.Window)
		}
	}
	// Ring drains: the same latency regime may now open the window.
	var s Sizes
	for i := 0; i < 30; i++ {
		clk.Advance(DefaultInterval)
		s, _ = tn.Observe(Sample{FlushLatency: 0.100, Interval: 0.001, RingFill: 0})
	}
	if s.Window <= 2 {
		t.Fatalf("window stuck at %d after the ring drained", s.Window)
	}
}

// An active spill backlog (degraded mode) vetoes window growth exactly like
// a saturated ring, reports Degraded, and releases the moment the backlog
// drains.
func TestDegradedModeVetoesWindowGrowth(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 2}, Limits{MaxWindow: 10, MaxWriters: 10})
	for i := 0; i < 30; i++ {
		clk.Advance(DefaultInterval)
		s, _ := tn.Observe(Sample{FlushLatency: 0.100, Interval: 0.001, RingFill: -1, SpillActive: true})
		if s.Window > 2 {
			t.Fatalf("window grew to %d while spilling", s.Window)
		}
	}
	st := tn.Stats()
	if !st.Degraded {
		t.Fatal("Stats.Degraded false while spill active")
	}
	if st.DegradedDecisions == 0 {
		t.Fatal("no degraded decisions counted")
	}
	// Backlog drains: the same latency regime may now open the window.
	var s Sizes
	for i := 0; i < 30; i++ {
		clk.Advance(DefaultInterval)
		s, _ = tn.Observe(Sample{FlushLatency: 0.100, Interval: 0.001, RingFill: -1})
	}
	if s.Window <= 2 {
		t.Fatalf("window stuck at %d after the spill drained", s.Window)
	}
	if st := tn.Stats(); st.Degraded {
		t.Fatal("Stats.Degraded stuck after drain")
	}
}

// The spare-core budget under sustained growth pressure — flush latency far
// above the interval (wants more writers), encode latency above store
// latency (wants more encoders) — against a budget the initial sizes already
// fill: every decision must keep Writers+Encode+Reserved within the budget,
// and the pressure must really have pushed at the limit (vetoes counted).
func TestBudgetRespectedUnderGrowthPressure(t *testing.T) {
	const budget, reserved = 5, 2
	clk := NewManualClock(time.Unix(0, 0))
	tn, err := New(Config{
		Mode:     "auto",
		Initial:  Sizes{Writers: 2, Window: 2, Encode: 1},
		Limits:   Limits{MaxWriters: 8, MaxWindow: 8, MaxEncode: 4},
		Clock:    clk,
		Budget:   budget,
		Reserved: reserved,
	})
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample{FlushLatency: 0.05, Interval: 0.005, QueueDepth: 2,
		EncodeLatency: 0.004, StoreLatency: 0.001, RingFill: -1}
	for i := 0; i < 40; i++ {
		clk.Advance(DefaultInterval)
		s, _ := tn.Observe(sample)
		if used := s.Writers + s.Encode + reserved; used > budget {
			t.Fatalf("decision %d: writers %d + encode %d + reserved %d = %d, budget %d",
				i, s.Writers, s.Encode, reserved, used, budget)
		}
	}
	if st := tn.Stats(); st.BudgetVetoes == 0 || st.Decisions == 0 {
		t.Fatalf("growth pressure never reached the budget: %d vetoes over %d decisions",
			st.BudgetVetoes, st.Decisions)
	}
}

// Decisions are rate-limited to the configured interval even when every
// iteration observes.
func TestDecisionRateLimit(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn, err := New(Config{Mode: "auto", Initial: Sizes{Writers: 1, Window: 1},
		Interval: time.Second, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for i := 0; i < 100; i++ {
		clk.Advance(100 * time.Millisecond) // 10 observations per decision window
		if _, changed := tn.Observe(Sample{FlushLatency: 1, Interval: 0.001}); changed {
			changes++
		}
	}
	st := tn.Stats()
	if st.Decisions > 10 {
		t.Fatalf("%d decisions over 10 decision windows", st.Decisions)
	}
	if changes == 0 {
		t.Fatal("no resize despite a 1000x latency/interval ratio")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Mode: "banana"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := New(Config{Mode: "auto", Interval: -time.Second}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := New(Config{Mode: "auto", Alpha: 2}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := New(Config{Mode: "auto", Limits: Limits{MaxEncode: -1}}); err == nil {
		t.Fatal("negative encode cap accepted")
	}
	// Initial sizes above the limits are clamped, not rejected: the static
	// config stays valid when auto mode narrows the range.
	tn, err := New(Config{Mode: "auto", Initial: Sizes{Writers: 99, Window: 99, Encode: 99},
		Limits: Limits{MaxWriters: 2, MaxWindow: 3, MaxEncode: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s := tn.Sizes(); s != (Sizes{Writers: 2, Window: 3, Encode: 1}) {
		t.Fatalf("clamped initial = %+v", s)
	}
}

// Observe on the steady path must not allocate: it runs on the dedicated
// core's event loop every iteration.
func TestObserveDoesNotAllocate(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tn := newAuto(t, clk, Sizes{Writers: 1, Window: 1, Encode: 1}, Limits{})
	sample := Sample{FlushLatency: 0.01, Interval: 0.01, EncodeLatency: 0.001, StoreLatency: 0.001}
	allocs := testing.AllocsPerRun(200, func() {
		clk.Advance(DefaultInterval)
		tn.Observe(sample)
	})
	if allocs > 0 {
		t.Fatalf("Observe allocates %.1f/op", allocs)
	}
}

// WorkerSet: slots are never reused across shrink/grow cycles, and
// utilization is measured against the historical peak commanded count, not
// slots-ever-started.
func TestWorkerSetSlotsAndUtilization(t *testing.T) {
	var ws WorkerSet
	var started []int
	start := func(slot int, stop chan struct{}) { started = append(started, slot) }

	if changed := ws.Resize(2, start); !changed || ws.Workers() != 2 || ws.Peak() != 2 {
		t.Fatalf("construction: workers=%d peak=%d changed=%v", ws.Workers(), ws.Peak(), changed)
	}
	if ws.Resizes() != 0 {
		t.Fatalf("construction counted as resize: %d", ws.Resizes())
	}
	ws.Resize(1, start) // shrink: stops slot 1
	ws.Resize(3, start) // grow: fresh slots 2,3 — slot 1 must not restart
	if got, want := fmt.Sprint(started), "[0 1 2 3]"; got != want {
		t.Fatalf("started slots %v, want %v (no reuse)", got, want)
	}
	if ws.Workers() != 3 || ws.Peak() != 3 || ws.Resizes() != 2 {
		t.Fatalf("after cycles: workers=%d peak=%d resizes=%d", ws.Workers(), ws.Peak(), ws.Resizes())
	}
	if len(ws.Busy()) != 4 {
		t.Fatalf("busy slots = %d, want one per worker ever started", len(ws.Busy()))
	}

	// Fully busy peak-sized pool over the wall interval reads 100%, even
	// though 4 slots ever started.
	for slot := 0; slot < 4; slot++ {
		ws.AddBusy(slot, 7.5) // 4 slots x 7.5s = 30s = peak(3) x wall(10)
	}
	if u := ws.Utilization(10); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0 against peak", u)
	}
	if u := ws.Utilization(0); u != 0 {
		t.Fatalf("zero wall utilization = %v", u)
	}
	if ws.Resize(0, start); ws.Workers() != 1 {
		t.Fatalf("Resize(0) left %d workers, want the floor of 1", ws.Workers())
	}
}
