package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"damaris/internal/stats"
)

// Iteration-lifecycle tracing: every stage an iteration passes through on
// its way to durability — client write, chunk encode, queue wait (or
// scratch spill), persist, aggregate merge, store commit, durability ack —
// records one span event into a fixed-size lock-free ring. The ring keeps
// the most recent TraceSlots spans (older ones are overwritten — the
// truncation semantics tests pin down); per-stage streaming histograms
// accumulate over the whole run regardless, so live jitter percentiles and
// the Spread (max−min) figure never lose history.

// Stage identifies one step of the iteration lifecycle.
type Stage uint8

// Lifecycle stages, in pipeline order.
const (
	// StageWrite is the span from the first client event of an iteration
	// arriving at the dedicated core to the iteration's completion (all
	// clients announced EndIteration) — the server-side view of the write
	// phase.
	StageWrite Stage = iota
	// StageEncode is one chunk's compress/shuffle/CRC on the encode pool.
	StageEncode
	// StageQueue is an iteration's wait in the write-behind queue, from
	// submit to a persist writer picking it up.
	StageQueue
	// StageSpill is a degraded-mode divert of one iteration to the local
	// scratch file.
	StageSpill
	// StagePersist is the durable persister call (an iteration in a batch
	// carries the whole batch's call span).
	StagePersist
	// StageMerge is the aggregation leader's merge+commit of one epoch.
	StageMerge
	// StageCommit is the storage backend's manifest/rename publish of one
	// DSF object.
	StageCommit
	// StageAck is the full submit→durability-ack latency of one iteration —
	// what the client flow window tracks.
	StageAck
	// NumStages bounds the stage space.
	NumStages
)

var stageNames = [NumStages]string{
	"write", "encode", "queue", "spill", "persist", "merge", "commit", "ack",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// StageFromString resolves a stage name; ok is false for unknown names.
func StageFromString(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one recorded lifecycle event.
type Span struct {
	Stage     Stage
	Server    int   // world rank of the recording dedicated core; -1 when unknown
	Origin    int   // world rank the work originated on (== Server for local spans)
	Shard     int   // event-loop shard that recorded the span; -1 when not shard-attributed
	Iteration int64 // iteration (or aggregation epoch); -1 when unknown
	Start     int64 // nanoseconds since the Unix epoch
	Dur       int64 // nanoseconds
	Bytes     int64
	Err       bool
}

// spanSlot is one ring cell. Every field is atomic so concurrent
// record/snapshot stays race-free; seq is the torn-read guard: a reader
// that sees seq change (or negative, mid-write) across its field reads
// discards the slot.
type spanSlot struct {
	seq    atomic.Int64 // 0 empty; -(idx+1) while writing; idx+1 when valid
	stage  atomic.Int64
	server atomic.Int64
	origin atomic.Int64
	shard  atomic.Int64
	iter   atomic.Int64
	start  atomic.Int64
	dur    atomic.Int64
	bytes  atomic.Int64
	errv   atomic.Int64
}

// DefaultTraceSlots is the default ring capacity (¼Mi spans ≈ 16 MiB would
// be excessive; 16Ki×64B = 1 MiB holds several thousand iterations' full
// lifecycles).
const DefaultTraceSlots = 1 << 14

// Tracer records lifecycle spans into a fixed ring and aggregates
// per-stage duration histograms. All methods tolerate a nil receiver
// (tracing disabled): Record on a nil tracer is a single branch.
type Tracer struct {
	slots []spanSlot
	mask  int64
	next  atomic.Int64
	hist  [NumStages]*Histogram
}

// NewTracer builds a tracer whose ring retains the most recent `slots`
// spans, rounded up to a power of two (minimum 16).
func NewTracer(slots int) *Tracer {
	n := 16
	for n < slots {
		n <<= 1
	}
	t := &Tracer{slots: make([]spanSlot, n), mask: int64(n - 1)}
	bounds := DefaultDurationBuckets()
	for i := range t.hist {
		t.hist[i] = NewHistogram(bounds)
	}
	return t
}

// Cap returns the ring capacity in spans.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Record appends one span whose work originated on the recording rank
// (Origin == Server). 0 allocs, lock-free, safe for concurrent use. Under
// an extreme wraparound race (two writers 2^slots records apart hitting
// one cell simultaneously) a single exported span may mix fields; the ring
// itself is never corrupted.
func (t *Tracer) Record(stage Stage, server int, iteration int64, start time.Time, dur time.Duration, bytes int64, isErr bool) {
	t.record(stage, server, server, -1, iteration, start, dur, bytes, isErr)
}

// RecordShard appends one local span attributed to an event-loop shard of
// the recording dedicated core (shard < 0 means not shard-attributed). Same
// 0-alloc, lock-free guarantees as Record.
func (t *Tracer) RecordShard(stage Stage, server, shard int, iteration int64, start time.Time, dur time.Duration, bytes int64, isErr bool) {
	t.record(stage, server, server, shard, iteration, start, dur, bytes, isErr)
}

func (t *Tracer) record(stage Stage, server, origin, shard int, iteration int64, start time.Time, dur time.Duration, bytes int64, isErr bool) {
	if t == nil || stage >= NumStages {
		return
	}
	idx := t.next.Add(1) - 1
	s := &t.slots[idx&t.mask]
	s.seq.Store(-(idx + 1))
	s.stage.Store(int64(stage))
	s.server.Store(int64(server))
	s.origin.Store(int64(origin))
	s.shard.Store(int64(shard))
	s.iter.Store(iteration)
	s.start.Store(start.UnixNano())
	s.dur.Store(int64(dur))
	s.bytes.Store(bytes)
	var e int64
	if isErr {
		e = 1
	}
	s.errv.Store(e)
	s.seq.Store(idx + 1)
	t.hist[stage].Observe(dur.Seconds())
}

// Total returns the number of spans ever recorded.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// Dropped returns how many spans the ring has already overwritten — the
// truncation the exports carry: Snapshot holds the most recent
// Total()−Dropped() spans.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	d := t.next.Load() - int64(len(t.slots))
	if d < 0 {
		return 0
	}
	return d
}

// Snapshot returns the retained spans in deterministic (start, seq) order:
// primary key the span's start timestamp, ties broken by record sequence.
// Ring-slot order alone is not byte-stable across identical runs once the
// ring wraps — which record lands in which slot depends on goroutine
// interleaving — so the exports sort instead. Slots being overwritten
// concurrently are skipped, so a snapshot taken mid-run is consistent but
// possibly a few spans short.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	hi := t.next.Load()
	lo := hi - int64(len(t.slots))
	if lo < 0 {
		lo = 0
	}
	out := make([]Span, 0, hi-lo)
	for idx := lo; idx < hi; idx++ {
		s := &t.slots[idx&t.mask]
		if s.seq.Load() != idx+1 {
			continue // empty, mid-write, or already lapped
		}
		sp := Span{
			Stage:     Stage(s.stage.Load()),
			Server:    int(s.server.Load()),
			Origin:    int(s.origin.Load()),
			Shard:     int(s.shard.Load()),
			Iteration: s.iter.Load(),
			Start:     s.start.Load(),
			Dur:       s.dur.Load(),
			Bytes:     s.bytes.Load(),
			Err:       s.errv.Load() != 0,
		}
		if s.seq.Load() != idx+1 {
			continue // overwritten while reading
		}
		out = append(out, sp)
	}
	// Spans were collected in ascending record-sequence order; a stable
	// sort on start therefore leaves equal-start spans in seq order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// StageHistogram returns the run-lifetime duration histogram of one stage
// (nil for a nil tracer). Unlike the ring it never truncates.
func (t *Tracer) StageHistogram(stage Stage) *Histogram {
	if t == nil || stage >= NumStages {
		return nil
	}
	return t.hist[stage]
}

// StageSummary computes exact descriptive statistics (incl. percentiles)
// over the retained spans of one stage — only the retained ones: once the
// ring wraps, the summary describes the most recent tail, which is why
// JitterReport pairs it with the lifetime count (Total/Truncated) from the
// never-truncating stage histogram. This is the function both the live
// /jitter scrape and damaris-run's end-of-run jitter report call — one
// code path, so the two always agree.
func (t *Tracer) StageSummary(stage Stage) stats.Summary {
	if t == nil {
		return stats.Summary{}
	}
	var durs []float64
	for _, sp := range t.Snapshot() {
		if sp.Stage == stage {
			durs = append(durs, time.Duration(sp.Dur).Seconds())
		}
	}
	return stats.Summarize(durs)
}

// Collect emits the tracer's registry view: span totals plus, per stage,
// the lifetime duration histogram.
func (t *Tracer) Collect(e *Emitter) {
	if t == nil {
		return
	}
	e.Counter("damaris_trace_spans_total", float64(t.Total()))
	e.Counter("damaris_trace_spans_dropped_total", float64(t.Dropped()))
	e.Gauge("damaris_trace_ring_slots", float64(t.Cap()))
	for st := Stage(0); st < NumStages; st++ {
		h := t.hist[st]
		if h.Count() == 0 {
			continue
		}
		e.histogram("damaris_stage_seconds", h, sortLabels([]string{"stage", st.String()}))
	}
}

// spanJSON is the JSONL wire form of a span. Origin is a pointer so that
// pre-fleet trace files (no origin field) read back with Origin defaulted
// to Server rather than zero; shard follows the same pattern — absent (the
// pre-sharding format, or a span not attributed to an event-loop shard)
// reads back as -1.
type spanJSON struct {
	Stage     string `json:"stage"`
	Server    int    `json:"server"`
	Origin    *int   `json:"origin,omitempty"`
	Shard     *int   `json:"shard,omitempty"`
	Iteration int64  `json:"iter"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	Bytes     int64  `json:"bytes,omitempty"`
	Err       bool   `json:"err,omitempty"`
}

// WriteJSONL writes the retained spans as one JSON object per line —
// dsf-inspect -trace reads this back.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, t.Snapshot())
}

// WriteSpansJSONL writes spans as JSONL.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		sp := &spans[i]
		sj := spanJSON{
			Stage:     sp.Stage.String(),
			Server:    sp.Server,
			Origin:    &sp.Origin,
			Iteration: sp.Iteration,
			StartNS:   sp.Start,
			DurNS:     sp.Dur,
			Bytes:     sp.Bytes,
			Err:       sp.Err,
		}
		if sp.Shard >= 0 {
			sj.Shard = &sp.Shard
		}
		if err := enc.Encode(sj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses spans written by WriteSpansJSONL.
func ReadSpansJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for dec.More() {
		var sj spanJSON
		if err := dec.Decode(&sj); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", len(out)+1, err)
		}
		st, ok := StageFromString(sj.Stage)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown stage %q", len(out)+1, sj.Stage)
		}
		origin := sj.Server
		if sj.Origin != nil {
			origin = *sj.Origin
		}
		shard := -1
		if sj.Shard != nil {
			shard = *sj.Shard
		}
		out = append(out, Span{
			Stage:     st,
			Server:    sj.Server,
			Origin:    origin,
			Shard:     shard,
			Iteration: sj.Iteration,
			Start:     sj.StartNS,
			Dur:       sj.DurNS,
			Bytes:     sj.Bytes,
			Err:       sj.Err,
		})
	}
	return out, nil
}

// chromeEvent is one Chrome trace-event ("X" complete event). pid groups by
// recording server, tid by lifecycle stage, so chrome://tracing (or
// Perfetto) renders one track per stage per dedicated core.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChrome writes the retained spans in Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteSpansChrome(w, t.Snapshot())
}

// WriteSpansChrome converts spans to the Chrome trace-event format.
func WriteSpansChrome(w io.Writer, spans []Span) error {
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(spans))}
	for _, sp := range spans {
		args := map[string]any{"iter": sp.Iteration, "origin": sp.Origin}
		if sp.Shard >= 0 {
			args["shard"] = sp.Shard
		}
		if sp.Bytes > 0 {
			args["bytes"] = sp.Bytes
		}
		if sp.Err {
			args["err"] = true
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Stage.String(),
			Cat:  "damaris",
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  sp.Server,
			TID:  int(sp.Stage),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
