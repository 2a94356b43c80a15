// Package control is the adaptive control plane that unifies the pipeline's
// static sizing knobs — persist writer count, flow-window depth and encode
// pool size — into one feedback-tuned subsystem.
//
// The paper's dedicated-core design absorbs I/O jitter only when the
// write-behind window, writer pool and encode pool are sized to what the
// storage can actually absorb. Those used to be three static config knobs
// (`persist_workers`, `persist_queue_depth`, `encode_workers`); TASIO-style
// task-aware I/O runtimes instead adapt concurrency to observed storage
// latency. The Tuner here consumes the per-stage telemetry the pipeline
// already exports (flush latency, encode latency, queue depth, store put
// latency, aggregation ring occupancy) and periodically re-sizes all three
// knobs between iterations:
//
//   - the flow window opens only as far as the observed
//     flush-latency/iteration-interval ratio warrants — a window deeper than
//     ceil(latency/interval)+1 only grows pinned shared memory without hiding
//     any more latency, while a shallower one re-couples clients to storage;
//   - the writer pool tracks the same ratio (one writer per concurrently
//     in-flight flush), shrinking toward the synchronous baseline (one
//     writer, window 1) when storage is fast;
//   - the encode pool grows only while encoding — not the store — is the
//     bottleneck (encode latency above store put latency), and shrinks back
//     when the streamer is what limits throughput;
//   - a saturated aggregation fan-in ring vetoes window growth: opening the
//     client window into a full ring would only move the queueing, not hide
//     it.
//
// The controller is deterministic: decisions are a pure function of the
// sample sequence and the injected clock, with no randomness and no
// dependence on goroutine scheduling. It only ever changes *when* work
// overlaps — worker counts and window depths — never output bytes: every
// consumer (EncodePool, the persist pipeline, the aggregation merge) is
// already byte-deterministic across worker counts, so any decision sequence
// produces identical DSF/object output.
package control

import (
	"fmt"
	"math"
	"sync"
	"time"

	"damaris/internal/obs"
)

// Clock abstracts time so tests, benches and the simulator can drive the
// controller deterministically without real sleeping.
type Clock interface {
	Now() time.Time
}

// realClock is the wall-clock implementation.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// RealClock returns the wall-clock Clock used outside tests.
func RealClock() Clock { return realClock{} }

// ManualClock is a hand-advanced Clock for deterministic tests and the
// simulator. The zero value starts at the zero time; Advance moves it.
type ManualClock struct{ t time.Time }

// NewManualClock starts a manual clock at t.
func NewManualClock(t time.Time) *ManualClock { return &ManualClock{t: t} }

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time { return c.t }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// Sizes is one concurrency configuration of the pipeline: the three knobs
// the controller owns.
type Sizes struct {
	// Writers is the persist writer pool size (>= 1 under the pipeline).
	Writers int
	// Window is the client flow-window depth (also the useful queue depth).
	Window int
	// Encode is the chunk-encode pool size (0 = serial, no pool to resize).
	Encode int
}

// Limits bounds every dimension the Tuner may move. Min values below 1 are
// treated as 1 (0 Encode minimum means the encode dimension may rest at the
// pool floor of one worker but the tuner never tears the pool down).
type Limits struct {
	MaxWriters int
	MaxWindow  int
	MaxEncode  int
}

// Default bounds applied when a Limits field is zero.
const (
	DefaultMaxWriters = 8
	DefaultMaxWindow  = 16
	DefaultMaxEncode  = 8
	// DefaultInterval is the minimum time between controller decisions; the
	// tuner folds every observation into its smoothed state but re-sizes at
	// most once per interval, so resizing cost stays off the per-iteration
	// path.
	DefaultInterval = 250 * time.Millisecond
	// DefaultAlpha is the EWMA smoothing factor applied to samples: high
	// enough to follow genuine latency regime changes within a few
	// observations, low enough that a single outlier (or an oscillating
	// fault injector) cannot swing a decision on its own.
	DefaultAlpha = 0.3
	// ringVetoFill is the aggregation fan-in occupancy fraction above which
	// window growth is vetoed (the ring, not the client window, is the
	// bottleneck then).
	ringVetoFill = 0.75
	// pressureFill is the queue-depth/window fraction above which the
	// controller treats clients as durability-gated and keeps opening even
	// though the flush/interval ratio has plateaued (backpressure makes
	// completions arrive at the flush rate, hiding how slow the store is).
	pressureFill = 0.75
)

// Sample is one telemetry observation, taken at an iteration boundary. All
// latencies are seconds; zero fields mean "no signal" and leave the
// corresponding smoothed state untouched.
type Sample struct {
	// FlushLatency is the most recent iteration's submit→durable seconds.
	FlushLatency float64
	// Interval is the seconds between the last two iteration completions on
	// the event loop — the compute interval the flush must hide inside.
	Interval float64
	// EncodeLatency is the per-chunk encode seconds (pool mean).
	EncodeLatency float64
	// StoreLatency is the per-op store put seconds (backend mean).
	StoreLatency float64
	// QueueDepth is the pipeline's mean in-flight iteration count.
	QueueDepth float64
	// RingFill is the aggregation fan-in ring occupancy as a fraction of
	// its capacity; negative means "no sample this observation" (0 is a
	// real sample: an empty ring decays the saturation veto).
	RingFill float64
	// SpillActive reports that the pipeline's scratch-spill path holds
	// iterations awaiting replay — the backend cannot keep up and the node
	// is running in degraded mode. Unlike the latency fields this is a
	// direct state bit, not smoothed: the veto must engage the moment
	// spilling starts and release the moment the backlog drains.
	SpillActive bool
}

// Config describes one Tuner.
type Config struct {
	// Mode is "static" (every Observe is a no-op — byte-for-byte the
	// pre-control behavior) or "auto".
	Mode string
	// Initial is the starting configuration (the static config's sizes).
	Initial Sizes
	// Limits bounds the tunable range; zero fields select the defaults.
	Limits Limits
	// Interval is the minimum time between decisions (0 = DefaultInterval).
	Interval time.Duration
	// Alpha is the EWMA smoothing factor in (0,1] (0 = DefaultAlpha).
	Alpha float64
	// Clock injects time; nil selects the wall clock.
	Clock Clock
	// Budget is the node's spare-core budget (GOMAXPROCS − clients, or an
	// explicit override) shared by shard event loops, persist writers, and
	// encode workers. 0 disables budgeting (the pre-sharding behavior).
	// With a budget set, initial sizes are trimmed to fit and decide()
	// vetoes any growth that would push Writers+Encode+Reserved past it.
	Budget int
	// Reserved is the portion of Budget already committed to shard event
	// loops; the tuner divides only the remainder between writers and
	// encode workers.
	Reserved int
}

// Stats is a snapshot of the controller's activity, surfaced through
// core.PipelineStats and reported by cmd/damaris-run.
type Stats struct {
	// Mode echoes the configuration ("static" or "auto").
	Mode string
	// Decisions counts decision points evaluated; Resizes those that changed
	// at least one size.
	Decisions, Resizes int64
	// Steady is the consecutive decisions without a change — the convergence
	// signal.
	Steady int64
	// Sizes is the current effective configuration.
	Sizes Sizes
	// Limits echoes the tunable bounds (for reports).
	Limits Limits
	// Ratio is the smoothed flush-latency/iteration-interval ratio driving
	// the window and writer targets.
	Ratio float64
	// Degraded reports that the last observation carried an active spill
	// backlog: the node is shedding load to local scratch and the tuner is
	// vetoing window growth until the backlog drains.
	Degraded bool
	// DegradedDecisions counts decision points evaluated while degraded.
	DegradedDecisions int64
	// Budget and Reserved echo the spare-core budget configuration (0
	// budget = budgeting off); BudgetVetoes counts decisions where growth
	// was pulled back because Writers+Encode+Reserved would have exceeded
	// the budget.
	Budget, Reserved int
	BudgetVetoes     int64
}

// Emit writes the snapshot into a registry gather under the
// damaris_control_* families, mode carried as a label.
func (s Stats) Emit(e *obs.Emitter, labels ...string) {
	ls := labels
	if s.Mode != "" {
		ls = append([]string{"mode", s.Mode}, labels...)
	}
	e.Counter("damaris_control_decisions_total", float64(s.Decisions), ls...)
	e.Counter("damaris_control_resizes_total", float64(s.Resizes), ls...)
	e.Counter("damaris_control_degraded_decisions_total", float64(s.DegradedDecisions), ls...)
	e.Gauge("damaris_control_steady", float64(s.Steady), ls...)
	e.Gauge("damaris_control_ratio", s.Ratio, ls...)
	var deg float64
	if s.Degraded {
		deg = 1
	}
	e.Gauge("damaris_control_degraded", deg, ls...)
	e.Gauge("damaris_control_writers", float64(s.Sizes.Writers), ls...)
	e.Gauge("damaris_control_window", float64(s.Sizes.Window), ls...)
	e.Gauge("damaris_control_encode", float64(s.Sizes.Encode), ls...)
	e.Gauge("damaris_control_budget", float64(s.Budget), ls...)
	e.Gauge("damaris_control_reserved", float64(s.Reserved), ls...)
	e.Counter("damaris_control_budget_vetoes_total", float64(s.BudgetVetoes), ls...)
}

// Tuner is the feedback controller. Observe is driven from a single
// goroutine (the dedicated core's event loop, at iteration boundaries);
// Stats and Sizes may be read concurrently from any goroutine.
type Tuner struct {
	mode     string
	limits   Limits
	interval time.Duration
	alpha    float64
	clock    Clock

	budget   int // spare-core budget (0 = unlimited)
	reserved int // cores committed to shard event loops

	mu        sync.Mutex
	cur       Sizes
	vetoes    int64     // budget growth vetoes
	last      time.Time // last decision instant
	started   bool
	flush     ewma
	gap       ewma
	encode    ewma
	store     ewma
	ring      ewma
	depth     ewma
	decisions int64
	resizes   int64
	steady    int64
	degraded  bool
	degrDecs  int64
	// Previous decision's wanted direction per dimension (-1, 0, +1): a size
	// moves only when two consecutive decisions agree, so a smoothed ratio
	// straddling an integer boundary (alternating targets n, n+1) parks
	// instead of oscillating forever.
	dirWriters, dirWindow, dirEncode int
}

// ewma is a deterministic exponentially weighted moving average that
// initializes on its first sample.
type ewma struct {
	v   float64
	set bool
}

func (e *ewma) add(x, alpha float64) {
	if !e.set {
		e.v, e.set = x, true
		return
	}
	e.v += alpha * (x - e.v)
}

// New builds a Tuner. Mode "static" returns a controller whose Observe never
// changes anything; mode "auto" activates the feedback law.
func New(cfg Config) (*Tuner, error) {
	switch cfg.Mode {
	case "", "static":
		cfg.Mode = "static"
	case "auto":
	default:
		return nil, fmt.Errorf("control: unknown mode %q (want static or auto)", cfg.Mode)
	}
	lim := cfg.Limits
	if lim.MaxWriters == 0 {
		lim.MaxWriters = DefaultMaxWriters
	}
	if lim.MaxWindow == 0 {
		lim.MaxWindow = DefaultMaxWindow
	}
	if lim.MaxEncode == 0 {
		lim.MaxEncode = DefaultMaxEncode
	}
	if lim.MaxWriters < 1 || lim.MaxWindow < 1 || lim.MaxEncode < 0 {
		return nil, fmt.Errorf("control: invalid limits %+v", lim)
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("control: negative decision interval %v", cfg.Interval)
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("control: alpha %v outside (0,1]", cfg.Alpha)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.Budget < 0 || cfg.Reserved < 0 || cfg.Reserved > cfg.Budget && cfg.Budget > 0 {
		return nil, fmt.Errorf("control: invalid spare-core budget %d (reserved %d)", cfg.Budget, cfg.Reserved)
	}
	ini := cfg.Initial
	if ini.Writers < 1 {
		ini.Writers = 1
	}
	if ini.Window < 1 {
		ini.Window = 1
	}
	if ini.Writers > lim.MaxWriters {
		ini.Writers = lim.MaxWriters
	}
	if ini.Window > lim.MaxWindow {
		ini.Window = lim.MaxWindow
	}
	if ini.Encode > lim.MaxEncode {
		ini.Encode = lim.MaxEncode
	}
	if cfg.Budget > 0 {
		// Trim the starting sizes to the spare-core budget so even static
		// mode never launches oversubscribed: shed encode workers first
		// (the write path keeps priority), then writers down to the floor
		// of one.
		for ini.Encode > 0 && ini.Writers+ini.Encode+cfg.Reserved > cfg.Budget {
			ini.Encode--
		}
		for ini.Writers > 1 && ini.Writers+ini.Encode+cfg.Reserved > cfg.Budget {
			ini.Writers--
		}
	}
	return &Tuner{
		mode:     cfg.Mode,
		limits:   lim,
		interval: cfg.Interval,
		alpha:    cfg.Alpha,
		clock:    cfg.Clock,
		budget:   cfg.Budget,
		reserved: cfg.Reserved,
		cur:      ini,
	}, nil
}

// Mode returns "static" or "auto" ("static" for a nil Tuner).
func (t *Tuner) Mode() string {
	if t == nil {
		return "static"
	}
	return t.mode
}

// Sizes returns the current effective configuration.
func (t *Tuner) Sizes() Sizes {
	if t == nil {
		return Sizes{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Limits returns the effective bounds.
func (t *Tuner) Limits() Limits {
	if t == nil {
		return Limits{}
	}
	return t.limits
}

// Observe folds one telemetry sample into the controller's smoothed state
// and, at most once per decision interval, moves each size one step toward
// its feedback target. It returns the effective sizes and whether this call
// changed them. Static mode (and a nil Tuner) always returns (initial,
// false).
func (t *Tuner) Observe(s Sample) (Sizes, bool) {
	if t == nil {
		return Sizes{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode != "auto" {
		return t.cur, false
	}
	if s.FlushLatency > 0 {
		t.flush.add(s.FlushLatency, t.alpha)
	}
	if s.Interval > 0 {
		t.gap.add(s.Interval, t.alpha)
	}
	if s.EncodeLatency > 0 {
		t.encode.add(s.EncodeLatency, t.alpha)
	}
	if s.StoreLatency > 0 {
		t.store.add(s.StoreLatency, t.alpha)
	}
	if s.QueueDepth > 0 {
		t.depth.add(s.QueueDepth, t.alpha)
	}
	if s.RingFill >= 0 {
		t.ring.add(s.RingFill, t.alpha)
	}
	t.degraded = s.SpillActive

	now := t.clock.Now()
	if !t.started {
		// First observation anchors the decision clock; deciding on a single
		// raw sample would let startup noise pick the initial direction.
		t.started = true
		t.last = now
		return t.cur, false
	}
	if now.Sub(t.last) < t.interval {
		return t.cur, false
	}
	t.last = now
	return t.decide()
}

// decide computes the feedback targets from the smoothed state and moves the
// current sizes one step toward them. Single-step moves plus EWMA smoothing
// are the oscillation damper: an alternating fault injector converges to the
// smoothed fixed point instead of chasing each spike.
func (t *Tuner) decide() (Sizes, bool) {
	t.decisions++
	if t.degraded {
		t.degrDecs++
	}
	next := t.cur

	if t.flush.set && t.gap.set && t.gap.v > 0 {
		ratio := t.flush.v / t.gap.v
		// The window must cover the iterations that complete while one flush
		// is in flight, plus the one being filled: ceil(ratio)+1. A fast
		// store (ratio → 0) collapses this to the synchronous baseline's
		// window of 1... +1 headroom only once flushes outlast an interval.
		targetWindow := clamp(int(math.Ceil(ratio))+1, 1, t.limits.MaxWindow)
		if ratio < 0.5 {
			targetWindow = 1
		}
		targetWriters := clamp(int(math.Ceil(ratio)), 1, t.limits.MaxWriters)
		// Backpressure assist: the ratio alone can plateau near 1 under a
		// tight window — when clients are gated on durability, iteration
		// completions arrive at the flush rate, so flush/interval stops
		// rising no matter how slow the store is. A queue sitting near the
		// current window is the tell: clients are blocked, so keep opening
		// (one step per decision, still clamped and ring-vetoed below)
		// until either the queue drains or the bounds stop us.
		if t.depth.set && ratio >= 0.75 &&
			t.depth.v >= pressureFill*float64(t.cur.Window) {
			if targetWindow <= t.cur.Window {
				targetWindow = clamp(t.cur.Window+1, 1, t.limits.MaxWindow)
			}
			if targetWriters <= t.cur.Writers {
				targetWriters = clamp(t.cur.Writers+1, 1, t.limits.MaxWriters)
			}
		}
		// A saturated aggregation fan-in ring means the leader — not client
		// admission — is the bottleneck: hold (or pull back) the window
		// rather than queueing more epochs behind the merge.
		if t.ring.v >= ringVetoFill && targetWindow > t.cur.Window {
			targetWindow = t.cur.Window
		}
		// Degraded mode (spill backlog awaiting replay) vetoes growth the
		// same way: the backend is already underwater, and a wider window
		// would admit client data faster than the drainer can replay it —
		// growing the scratch file without hiding any latency.
		if t.degraded && targetWindow > t.cur.Window {
			targetWindow = t.cur.Window
		}
		// One writer per concurrently in-flight flush keeps the pool exactly
		// as parallel as the latency it must hide; capped by the post-veto
		// window — more writers than in-flight iterations can only idle.
		if targetWriters > targetWindow {
			targetWriters = targetWindow
		}
		next.Window = step(t.cur.Window, targetWindow, &t.dirWindow)
		next.Writers = step(t.cur.Writers, targetWriters, &t.dirWriters)
	}

	if t.cur.Encode > 0 && t.encode.set && t.store.set {
		// Grow the encode pool only while encoding outweighs the store put —
		// more compressors than the streamer can drain just pin buffers.
		target := t.cur.Encode
		if t.encode.v > t.store.v {
			target = t.cur.Encode + 1
		} else if t.encode.v < t.store.v/2 {
			target = t.cur.Encode - 1
		}
		next.Encode = step(t.cur.Encode, clamp(target, 1, t.limits.MaxEncode), &t.dirEncode)
	}

	// Spare-core budget veto: growth that would push the worker total past
	// the node's spare cores is pulled back (encode first — the write path
	// keeps priority). Moves are one step per decision, so reverting the
	// grown dimensions always lands back within the previous usage; the
	// budget never forces a shrink below a configuration that already fit.
	if t.budget > 0 {
		used := next.Writers + next.Encode + t.reserved
		if used > t.budget {
			vetoed := false
			if next.Encode > t.cur.Encode {
				used -= next.Encode - t.cur.Encode
				next.Encode = t.cur.Encode
				vetoed = true
			}
			if used > t.budget && next.Writers > t.cur.Writers {
				next.Writers = t.cur.Writers
				vetoed = true
			}
			if vetoed {
				t.vetoes++
			}
		}
	}

	changed := next != t.cur
	if changed {
		t.resizes++
		t.steady = 0
	} else {
		t.steady++
	}
	t.cur = next
	return t.cur, changed
}

// Stats snapshots the controller's counters (zero value for nil).
func (t *Tuner) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{
		Mode:              t.mode,
		Decisions:         t.decisions,
		Resizes:           t.resizes,
		Steady:            t.steady,
		Sizes:             t.cur,
		Limits:            t.limits,
		Degraded:          t.degraded,
		DegradedDecisions: t.degrDecs,
		Budget:            t.budget,
		Reserved:          t.reserved,
		BudgetVetoes:      t.vetoes,
	}
	if t.flush.set && t.gap.set && t.gap.v > 0 {
		st.Ratio = t.flush.v / t.gap.v
	}
	return st
}

// clamp bounds v to [lo,hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// step moves cur one unit toward target, but only when this decision's
// direction matches the previous one's (stored in *prev) — the hysteresis
// that parks a size whose target alternates across an integer boundary.
func step(cur, target int, prev *int) int {
	dir := 0
	switch {
	case target > cur:
		dir = 1
	case target < cur:
		dir = -1
	}
	agreed := dir != 0 && dir == *prev
	*prev = dir
	if !agreed {
		return cur
	}
	return cur + dir
}
