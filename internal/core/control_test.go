package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/schedule"
	"damaris/internal/store"
)

// controlCfg builds a config with the adaptive control plane on.
func controlCfg(t *testing.T, workers, queue, encode int, mode string) *config.Config {
	t.Helper()
	xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="1"/>
  <pipeline workers="%d" queue="%d" encode_workers="%d"/>
  <control mode="%s" interval_ms="1" max_workers="6" max_window="8" max_encode="4"/>
  <layout name="l" type="real" dimensions="16,4"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
</simulation>`, workers, queue, encode, mode)
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runControl deploys 1 node x 4 cores with the given config and persister,
// every client writing both variables for `iters` iterations, and returns
// the server's stats.
func runControl(t *testing.T, cfg *config.Config, opts Options, iters int) (PipelineStats, *Server) {
	t.Helper()
	var srv *Server
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			// Always finalize, even after a write error — a client that just
			// bails leaves the server draining forever (a hang, not a
			// failure).
			defer cli.Finalize()
		loop:
			for it := int64(0); it < int64(iters); it++ {
				for _, name := range []string{"a", "b"} {
					if err := cli.WriteFloat32s(name, it, fieldData(cli.Source())); err != nil {
						t.Error(err)
						break loop
					}
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					break loop
				}
			}
			return
		}
		srv = dep.Server
		if err := dep.Server.Run(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.PipelineStats(), srv
}

// Auto mode under injected store latency: flushes dwarf the compute
// interval, so the controller must open the writer pool and flow window
// above their starting sizes — and never past the configured bounds.
func TestControlAutoConvergesUnderFaultLatency(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.NewFileStore(dir, store.Options{
		Fault: store.Latency(4 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	pers := &DSFPersister{Backend: backend}

	cfg := controlCfg(t, 1, 1, 0, "auto")
	ps, srv := runControl(t, cfg, Options{Persister: pers}, 60)

	if ps.Control.Mode != "auto" {
		t.Fatalf("control mode = %q", ps.Control.Mode)
	}
	if ps.Control.Decisions == 0 || ps.Control.Resizes == 0 {
		t.Fatalf("controller idle: %+v", ps.Control)
	}
	s := ps.Control.Sizes
	if s.Writers < 1 || s.Writers > 6 || s.Window < 1 || s.Window > 8 {
		t.Fatalf("sizes %+v escaped documented bounds [1,6]x[1,8]", s)
	}
	if s.Writers == 1 && s.Window == 1 {
		t.Fatalf("controller never opened under 4ms/op store latency: %+v (ratio %.3g)", s, ps.Control.Ratio)
	}
	if ps.Window != s.Window {
		t.Fatalf("effective window %d does not track controller window %d", ps.Window, s.Window)
	}
	if live := srv.PipelineStats(); live.Workers != s.Writers || live.Window != s.Window {
		t.Fatalf("effective sizes = %d/%d, controller says %d/%d", live.Workers, live.Window, s.Writers, s.Window)
	}
	if ps.Enqueued != 60 || ps.Completed != 60 {
		t.Fatalf("drain incomplete under resizing: %+v", ps)
	}
}

// Static mode must not touch anything: no tuner, no resizes, effective
// sizes exactly the configured knobs.
func TestControlStaticIsInert(t *testing.T) {
	cfg := controlCfg(t, 2, 3, 0, "static")
	ps, srv := runControl(t, cfg, Options{Persister: &MemPersister{}}, 10)
	if ps.Control.Mode != "" || ps.Control.Decisions != 0 {
		t.Fatalf("static control left tracks: %+v", ps.Control)
	}
	if ps.Workers != 2 || ps.Window != 3 || ps.Resizes != 0 {
		t.Fatalf("static sizes moved: workers=%d window=%d resizes=%d", ps.Workers, ps.Window, ps.Resizes)
	}
	if live := srv.PipelineStats(); live.Workers != 2 || live.Window != 3 || live.Encode.Workers != 0 {
		t.Fatalf("effective sizes = %d/%d/%d, want 2/3/0", live.Workers, live.Window, live.Encode.Workers)
	}
}

// perIterScheduler is a non-batch-aware Scheduler: its presence forces the
// pipeline to one-iteration batches, which makes off-mode DSF file names
// (and therefore the whole output directory) deterministic for the golden
// comparison below.
type perIterScheduler struct{}

func (perIterScheduler) WaitTurn(int64) {}

// The determinism invariant: the controller may only change *when* work
// overlaps, never output bytes. Static and auto runs — under different
// injected store latencies, i.e. different decision sequences — must leave
// byte-identical DSF directories.
func TestControlDecisionSequencesByteIdentical(t *testing.T) {
	run := func(mode string, lat time.Duration, workers, queue, encode int) map[string][]byte {
		dir := t.TempDir()
		var opts store.Options
		if lat > 0 {
			opts.Fault = store.Latency(lat)
		}
		backend, err := store.NewFileStore(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		pers := &DSFPersister{Backend: backend}
		cfg := controlCfg(t, workers, queue, encode, mode)
		runControl(t, cfg, Options{Persister: pers, Scheduler: perIterScheduler{}}, 12)
		return readDir(t, dir)
	}

	ref := run("static", 0, 1, 1, 0)
	if len(ref) != 12 {
		t.Fatalf("static run produced %d objects, want one per iteration", len(ref))
	}
	for name, variant := range map[string]map[string][]byte{
		"auto/fast-store":    run("auto", 0, 1, 1, 0),
		"auto/slow-store":    run("auto", 3*time.Millisecond, 1, 1, 0),
		"auto/wide-start":    run("auto", 1*time.Millisecond, 4, 4, 0),
		"auto/encode-tuned":  run("auto", 2*time.Millisecond, 2, 2, 2),
		"static/wide-config": run("static", 2*time.Millisecond, 4, 4, 2),
	} {
		if len(variant) != len(ref) {
			t.Errorf("%s: %d objects, want %d", name, len(variant), len(ref))
			continue
		}
		for obj, want := range ref {
			got, ok := variant[obj]
			if !ok {
				t.Errorf("%s: object %s missing", name, obj)
				continue
			}
			if string(got) != string(want) {
				t.Errorf("%s: object %s differs from static baseline", name, obj)
			}
		}
	}
}

// Same invariant through the aggregation tier: one merged object per epoch,
// byte-identical between static and auto control (the per-PR-4 claim
// extended to every controller decision sequence).
func TestControlAggregatedByteIdentical(t *testing.T) {
	run := func(mode string, intervalMS int) map[string][]byte {
		dir := t.TempDir()
		xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="2"/>
  <pipeline workers="2" queue="4"/>
  <control mode="%s" interval_ms="%d" max_workers="6" max_window="8"/>
  <aggregate mode="core"/>
  <layout name="field" type="real" dimensions="16,4"/>
  <variable name="temp" layout="field"/>
  <variable name="wind" layout="field"/>
</simulation>`, mode, intervalMS)
		cfg, err := config.ParseString(xml)
		if err != nil {
			t.Fatal(err)
		}
		_ = runAggregated(t, cfg, Options{OutputDir: dir}, 8)
		return readDir(t, dir)
	}

	ref := run("static", 1)
	if len(ref) != 2*8 {
		t.Fatalf("static aggregated run produced %d objects, want one per node per epoch", len(ref))
	}
	got := run("auto", 1)
	if len(got) != len(ref) {
		t.Fatalf("auto aggregated run produced %d objects, want %d", len(got), len(ref))
	}
	for name, want := range ref {
		if string(got[name]) != string(want) {
			t.Errorf("merged object %s differs between static and auto control", name)
		}
	}
}

// Live writer-pool resizing racing injected persist failures (run under
// -race in CI): the pipeline must drain completely, ack strictly in order,
// and never release a chunk early, whatever the resize sequence.
func TestPipelineResizeRacesPersistFailures(t *testing.T) {
	boom := errors.New("injected persist failure")
	pers := &checkingPersister{
		failIter: func(it int64) bool { return it%5 == 2 },
		boom:     boom,
	}
	var acked []int64
	var mu sync.Mutex
	p := newPipeline(pipelineSpec{persister: pers, workers: 1, depth: 4,
		onDurable: func(it int64, _, _ float64, _ int64, err error) {
			mu.Lock()
			acked = append(acked, it)
			mu.Unlock()
		}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 4, 2, 6, 3, 1, 5}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.resize(sizes[i%len(sizes)])
		}
	}()

	const iters = 200
	for it := int64(0); it < iters; it++ {
		p.submit(it, []*metadata.Entry{})
	}
	p.close()
	close(stop)
	wg.Wait()

	if pers.violations.Load() != 0 {
		t.Fatalf("%d early releases under resize", pers.violations.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acked) != iters {
		t.Fatalf("acked %d of %d iterations", len(acked), iters)
	}
	for i := range acked {
		if acked[i] != int64(i) {
			t.Fatalf("ack order broken at %d: %v...", i, acked[:i+1])
		}
	}
	snap := p.snapshot(4)
	if snap.Resizes == 0 {
		t.Fatal("no resize ever applied")
	}
	if snap.Completed != iters {
		t.Fatalf("completed %d of %d", snap.Completed, iters)
	}
}

// A batch-aware SlotScheduler keeps multi-iteration batching enabled; a
// plain Scheduler still disables it (§IV-D composed with write-behind).
func TestBatchSchedulerKeepsBatchingOn(t *testing.T) {
	sched, err := schedule.New(0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var bs Scheduler = sched
	if _, ok := bs.(BatchScheduler); !ok {
		t.Fatal("schedule.SlotScheduler does not implement BatchScheduler")
	}
	p := newPipeline(pipelineSpec{persister: &NullPersister{}, scheduler: sched, workers: 2, depth: 8})
	if p.maxBatch != 8 {
		t.Fatalf("maxBatch = %d with a batch-aware scheduler, want the queue depth 8", p.maxBatch)
	}
	p.close()

	p = newPipeline(pipelineSpec{persister: &NullPersister{}, scheduler: perIterScheduler{}, workers: 2, depth: 8})
	if p.maxBatch != 1 {
		t.Fatalf("maxBatch = %d with a per-iteration scheduler, want 1", p.maxBatch)
	}
	p.close()
}

// The aggregation-aware buffer bound: a shared buffer too small for
// window+1 write phases fails deployment on every rank with an error naming
// the derived bound.
func TestDeployAggregateBufferBoundEnforced(t *testing.T) {
	xml := `
<simulation>
  <buffer size="4096" cores="1"/>
  <pipeline workers="1" queue="4"/>
  <aggregate mode="core"/>
  <layout name="big" type="real" dimensions="64,8"/>
  <variable name="v" layout="big"/>
</simulation>`
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	var mu sync.Mutex
	if err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		_, err := Deploy(comm, cfg, nil, Options{Persister: &DSFPersister{Dir: t.TempDir()}})
		mu.Lock()
		if err != nil {
			errs = append(errs, err)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("deploy errors on %d of 4 ranks: %v", len(errs), errs)
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "derived bound") ||
			!strings.Contains(err.Error(), "slowest sibling") {
			t.Fatalf("error does not name the derived bound: %v", err)
		}
	}
	// The same deployment with a sufficient buffer must come up.
	cfg.BufferSize = 1 << 20
	if err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: &DSFPersister{Dir: t.TempDir()}})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			_ = dep.Client.Finalize()
			return
		}
		if err := dep.Server.Run(); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
