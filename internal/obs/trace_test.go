package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/stats"
)

func record(t *Tracer, stage Stage, iter int64, dur time.Duration) {
	t.Record(stage, 1, iter, time.Unix(0, 1000+iter), dur, 64, false)
}

func TestTracerRoundRobinStages(t *testing.T) {
	tr := NewTracer(64)
	for i := int64(0); i < 10; i++ {
		record(tr, Stage(i%int64(NumStages)), i, time.Duration(i+1)*time.Millisecond)
	}
	spans := tr.Snapshot()
	if len(spans) != 10 {
		t.Fatalf("snapshot has %d spans, want 10", len(spans))
	}
	for i, sp := range spans {
		if sp.Iteration != int64(i) {
			t.Fatalf("snapshot not oldest-first: spans[%d].Iteration = %d", i, sp.Iteration)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 0 {
		t.Fatalf("total/dropped = %d/%d, want 10/0", tr.Total(), tr.Dropped())
	}
}

// TestTracerWraparound pins the ring's truncation semantics: after recording
// more spans than the capacity, Snapshot holds exactly the most recent Cap()
// spans and Dropped counts the overwritten remainder.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(16) // min capacity
	const total = 100
	for i := int64(0); i < total; i++ {
		record(tr, StagePersist, i, time.Millisecond)
	}
	if tr.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", tr.Cap())
	}
	if tr.Total() != total {
		t.Fatalf("total = %d, want %d", tr.Total(), total)
	}
	if want := int64(total - 16); tr.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), want)
	}
	spans := tr.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("snapshot has %d spans, want 16", len(spans))
	}
	for i, sp := range spans {
		if want := int64(total - 16 + i); sp.Iteration != want {
			t.Fatalf("spans[%d].Iteration = %d, want %d (most recent 16, oldest first)",
				i, sp.Iteration, want)
		}
	}
	// The per-stage histogram never truncates: all 100 observations survive
	// in damaris_stage_seconds.
	reg := NewRegistry()
	reg.Collect(tr.Collect)
	var n float64
	for _, s := range reg.Gather() {
		if s.Name == "damaris_stage_seconds_count" && slices.Equal(s.Labels, []string{"stage", "persist"}) {
			n = s.Value
		}
	}
	if n != total {
		t.Fatalf("damaris_stage_seconds_count{stage=\"persist\"} = %g, want %d", n, total)
	}
}

func TestTracerCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		if got := NewTracer(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewTracer(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestTracerConcurrent hammers Record from many goroutines while snapshots
// run, under -race. Every retained span must be internally consistent: a
// writer that laps the ring must not overwrite a slot another is filling.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	torn := make(chan int64, 1)
	go func() {
		var bad int64
		for {
			select {
			case <-stop:
				torn <- bad
				return
			default:
				for _, sp := range tr.Snapshot() {
					// Writers always store bytes = iteration, so a mixed
					// span would betray a torn read.
					if sp.Bytes != sp.Iteration {
						bad++
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				it := int64(w*perWriter + i)
				tr.Record(StageAck, w, it, time.Unix(0, it), time.Microsecond, it, false)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if bad := <-torn; bad != 0 {
		t.Fatalf("%d torn spans in snapshots", bad)
	}
	if tr.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", tr.Total(), writers*perWriter)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(StageWrite, 0, 0, time.Time{}, 0, 0, false)
	tr.RecordSince(StageWrite, 0, 0, time.Time{}, 0, false)
	if tr.Snapshot() != nil || tr.Total() != 0 || tr.Dropped() != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer is not inert")
	}
	if s := SummarizeStages(tr.Snapshot()); s != ([NumStages]StageStats{}) {
		t.Fatal("nil tracer produced a summary")
	}
}

// SummarizeStages gives each stage the exact Summarize of its own spans'
// durations and the sum of their bytes, in one pass over all of them.
func TestStageSummaryMatchesSummarize(t *testing.T) {
	tr := NewTracer(64)
	durs := []time.Duration{5 * time.Millisecond, time.Millisecond, 20 * time.Millisecond, 2 * time.Millisecond}
	var secs []float64
	for i, d := range durs {
		record(tr, StageCommit, int64(i), d)
		record(tr, StageWrite, int64(i), time.Second) // other stages must not leak in
		secs = append(secs, d.Seconds())
	}
	got := SummarizeStages(tr.Snapshot())
	if want := stats.Summarize(secs); !reflect.DeepEqual(got[StageCommit].Durations, want) {
		t.Fatalf("commit stage = %+v, want %+v", got[StageCommit].Durations, want)
	}
	if got[StageCommit].Bytes != int64(64*len(durs)) {
		t.Fatalf("commit stage carried %d bytes, want %d", got[StageCommit].Bytes, 64*len(durs))
	}
	if w := got[StageWrite].Durations; w.N != len(durs) || w.Min != 1 || w.Max != 1 {
		t.Fatalf("write stage = %+v, want %d spans of 1 s", w, len(durs))
	}
	if got[StagePersist].Durations.N != 0 {
		t.Fatalf("persist stage = %+v, want none", got[StagePersist])
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(StageSpill, 3, 7, time.Unix(0, 12345), 2*time.Millisecond, 4096, true)
	tr.Record(StageMerge, 0, 8, time.Unix(0, 23456), time.Millisecond, 0, false)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr.Snapshot()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tr.Snapshot())
	}
	if _, err := ReadSpansJSONL(bytes.NewBufferString(`{"stage":"nope"}`)); err == nil {
		t.Fatal("unknown stage name decoded without error")
	}
	// WriteSpansJSONL writes neither a negative shard nor a negative
	// duration; a negative duration would make AnalyzeEpochs report a
	// negative wall time and no slowest origin.
	for _, doc := range []string{
		`{"stage":"write","server":1,"shard":-2,"iter":3,"start_ns":1000,"dur_ns":500}`,
		`{"stage":"write","server":1,"iter":3,"start_ns":1000,"dur_ns":-500}` + "\n" +
			`{"stage":"ack","server":1,"iter":3,"start_ns":2000,"dur_ns":-9000}`,
	} {
		if spans, err := ReadSpansJSONL(strings.NewReader(doc)); err == nil {
			t.Errorf("%s decoded without error: %+v", doc, spans)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(StagePersist, 2, 5, time.Unix(0, 3_000_000), 4*time.Millisecond, 1024, false)
	var buf bytes.Buffer
	if err := WriteSpansChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome doc is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("chrome doc has %d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "persist" || ev.Ph != "X" || ev.TS != 3000 || ev.Dur != 4000 ||
		ev.PID != 2 || ev.TID != int(StagePersist) {
		t.Fatalf("unexpected chrome event %+v", ev)
	}
	if ev.Args["iter"] != float64(5) || ev.Args["bytes"] != float64(1024) {
		t.Fatalf("unexpected chrome args %+v", ev.Args)
	}
}

// TestSnapshotByteStableAfterWrap pins the satellite determinism contract:
// two rings that retained the SAME final spans — after different amounts of
// pre-wrap history and with the final spans recorded in different orders —
// must export byte-identical /trace JSONL and Chrome documents. Snapshot's
// (start, seq) sort is what makes the export a function of the retained span
// set, not of ring offsets.
func TestSnapshotByteStableAfterWrap(t *testing.T) {
	const ringCap = 16
	a, b := NewTracer(ringCap), NewTracer(ringCap)
	// Different pre-histories: both rings wrap, at different slot offsets,
	// over spans that differ between the two tracers.
	for i := int64(0); i < 24; i++ {
		a.Record(StageWrite, 9, i, time.Unix(0, 10+i), time.Microsecond, i, false)
	}
	for i := int64(0); i < 21; i++ {
		b.Record(StageEncode, 8, i, time.Unix(0, 900+i), time.Millisecond, i, true)
	}
	// The same final ringCap spans, distinct Starts, recorded forward into a
	// and backward into b — both rings end up retaining exactly this set.
	final := make([]Span, ringCap)
	for i := range final {
		final[i] = Span{
			Stage:     Stage(i % int(NumStages)),
			Server:    i % 3,
			Iteration: int64(100 + i),
			Start:     int64(1_000_000 + i*1000),
			Dur:       int64(i+1) * int64(time.Microsecond),
			Bytes:     int64(i * 64),
		}
	}
	rec := func(tr *Tracer, sp Span) {
		tr.Record(sp.Stage, sp.Server, sp.Iteration,
			time.Unix(0, sp.Start), time.Duration(sp.Dur), sp.Bytes, sp.Err)
	}
	for i := 0; i < ringCap; i++ {
		rec(a, final[i])
	}
	for i := ringCap - 1; i >= 0; i-- {
		rec(b, final[i])
	}
	var ja, jb, ca, cb bytes.Buffer
	if err := a.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Errorf("JSONL exports differ after wrap:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if err := WriteSpansChrome(&ca, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansChrome(&cb, b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("chrome exports differ after wrap")
	}
	// And the exported order is the documented (start, seq): monotone starts.
	spans := a.Snapshot()
	if len(spans) != ringCap {
		t.Fatalf("snapshot has %d spans, want %d", len(spans), ringCap)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("snapshot not start-ordered at %d: %d after %d",
				i, spans[i].Start, spans[i-1].Start)
		}
	}
}

// Cross-rank spans round-trip their origin through JSONL, and older
// trace files without the field read back with Origin defaulting to Server.
func TestSpansJSONLOriginRoundTrip(t *testing.T) {
	span := Span{Stage: StageWrite, Server: 0, Origin: 5, Shard: -1, Iteration: 12,
		Start: 777, Dur: int64(time.Millisecond), Bytes: 2048}
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, []Span{span}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"origin":5`) {
		t.Fatalf("JSONL lacks origin field: %s", buf.String())
	}
	back, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Origin != 5 || back[0].Server != 0 {
		t.Fatalf("origin round trip = %+v", back)
	}
	legacy := `{"stage":"persist","server":3,"iter":1,"start":10,"dur_ns":20,"bytes":0,"err":false}` + "\n"
	back, err = ReadSpansJSONL(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Origin != 3 {
		t.Fatalf("legacy span origin = %+v, want Server (3)", back)
	}
}

func TestStageFromString(t *testing.T) {
	for st := Stage(0); st < NumStages; st++ {
		got, ok := StageFromString(st.String())
		if !ok || got != st {
			t.Fatalf("StageFromString(%q) = %v, %v", st.String(), got, ok)
		}
	}
	if _, ok := StageFromString("bogus"); ok {
		t.Fatal("bogus stage resolved")
	}
}
