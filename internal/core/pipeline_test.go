package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/plugin"
	"damaris/internal/shm"
)

// pipelineCfg builds a config with explicit write-behind pipeline knobs.
func pipelineCfg(t *testing.T, bufBytes int64, workers, queue int, vars ...string) *config.Config {
	t.Helper()
	varDecls := ""
	for _, v := range vars {
		varDecls += fmt.Sprintf("\n  <variable name=%q layout=\"l\"/>", v)
	}
	xml := fmt.Sprintf(`
<simulation>
  <buffer size="%d" cores="1"/>
  <pipeline workers="%d" queue="%d"/>
  <layout name="l" type="real" dimensions="32,32"/>%s
</simulation>`, bufBytes, workers, queue, varDecls)
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// checkingPersister wraps a MemPersister, injects deterministic failures,
// and asserts the pipeline's durability invariant: every shared-memory
// chunk handed to Persist must still be pinned (unreleased) for the whole
// call — chunks may only be released after the iteration is durable.
type checkingPersister struct {
	mem      MemPersister
	failIter func(it int64) bool
	boom     error

	violations atomic.Int64
	failures   atomic.Int64
}

func (p *checkingPersister) Persist(it int64, entries []*metadata.Entry) error {
	for _, e := range entries {
		if e.Block != nil && e.Block.Released() {
			p.violations.Add(1)
		}
	}
	if p.failIter != nil && p.failIter(it) {
		p.failures.Add(1)
		return p.boom
	}
	if err := p.mem.Persist(it, entries); err != nil {
		return err
	}
	// Re-check after the (copying) write: releases racing with an ongoing
	// persist would corrupt data on a real mmap-backed segment.
	for _, e := range entries {
		if e.Block != nil && e.Block.Released() {
			p.violations.Add(1)
		}
	}
	return nil
}

// TestPipelineStressRace is the race-detector stress test: many clients ×
// many iterations × multiple writers with injected persister failures.
// It asserts orderly drain on Close, error surfacing through Run and
// HandleErrors, the no-release-before-durable invariant, and payload
// integrity of every non-failed iteration.
func TestPipelineStressRace(t *testing.T) {
	const (
		ranks        = 8
		coresPerNode = 8
		iters        = 30
	)
	boom := errors.New("injected persist failure")
	pers := &checkingPersister{
		failIter: func(it int64) bool { return it%7 == 3 },
		boom:     boom,
	}
	cfg := pipelineCfg(t, 4<<20, 4, 4, "a", "b")
	var srv *Server
	var srvErr error
	err := mpi.Run(ranks, coresPerNode, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			srv = dep.Server
			srvErr = dep.Server.Run()
			return
		}
		cli := dep.Client
		data := make([]float32, 32*32)
		for i := range data {
			data[i] = float32(cli.Source())
		}
		for it := int64(0); it < iters; it++ {
			for _, name := range []string{"a", "b"} {
				if err := cli.WriteFloat32s(name, it, data); err != nil {
					t.Errorf("write %s@%d: %v", name, it, err)
					return
				}
			}
			if err := cli.EndIteration(it); err != nil {
				t.Error(err)
				return
			}
		}
		_ = cli.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}

	if pers.violations.Load() != 0 {
		t.Errorf("%d chunks were released before their iteration was durable", pers.violations.Load())
	}
	if srvErr == nil || !errors.Is(srvErr, boom) {
		t.Errorf("Run error = %v, want wrapped %v", srvErr, boom)
	}
	if got := srv.Close(); !errors.Is(got, boom) {
		t.Errorf("second Close error = %v, want the same wrapped %v", got, boom)
	}
	if len(srv.HandleErrors()) == 0 {
		t.Error("injected failures missing from HandleErrors")
	}

	ps := srv.PipelineStats()
	if ps.Enqueued != iters || ps.Completed != iters {
		t.Errorf("drain incomplete: enqueued=%d completed=%d, want %d", ps.Enqueued, ps.Completed, iters)
	}
	wantFails := int64(0)
	for it := int64(0); it < iters; it++ {
		if it%7 == 3 {
			wantFails++
		}
	}
	if ps.Failures != wantFails {
		t.Errorf("Failures = %d, want %d", ps.Failures, wantFails)
	}
	if ps.Workers != 4 || ps.QueueDepth != 4 {
		t.Errorf("stats shape = %d workers / %d queue, want 4/4", ps.Workers, ps.QueueDepth)
	}
	if ps.FlushLatency.N != iters {
		t.Errorf("flush latency samples = %d, want %d", ps.FlushLatency.N, iters)
	}
	if len(srv.FlushLatencies()) != iters {
		t.Errorf("FlushLatencies = %d samples, want %d", len(srv.FlushLatencies()), iters)
	}

	// Every non-failed iteration must be durable and intact; failed ones
	// must be absent (their data is definitively gone, never half-written).
	clients := ranks - 1
	for it := int64(0); it < iters; it++ {
		for src := 0; src < clients; src++ {
			b, ok := pers.mem.Get(metadata.Key{Name: "a", Iteration: it, Source: src})
			if it%7 == 3 {
				if ok {
					t.Errorf("failed iteration %d unexpectedly durable", it)
				}
				continue
			}
			if !ok {
				t.Errorf("iteration %d source %d missing", it, src)
				continue
			}
			if got := mpi.BytesToFloat32s(b); got[100] != float32(src) {
				t.Errorf("iteration %d source %d corrupted: %v", it, src, got[100])
			}
		}
	}

	// Ack order: iterations must be recorded strictly ascending even with
	// 4 writers racing.
	got := srv.Iterations()
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("iterations acked out of order: %v", got)
		}
	}
}

// gatedPersister blocks every Persist/PersistBatch call until the test
// feeds it a token, and reports what it has durably written — the
// deterministic scaffolding for the flow-window and batching tests.
type gatedPersister struct {
	started chan []int64  // iteration sets, in call order
	allow   chan struct{} // one token per call
	mu      sync.Mutex
	batches [][]int64
}

func (p *gatedPersister) record(its []int64) {
	p.started <- its
	<-p.allow
	p.mu.Lock()
	p.batches = append(p.batches, its)
	p.mu.Unlock()
}

func (p *gatedPersister) Persist(it int64, _ []*metadata.Entry) error {
	p.record([]int64{it})
	return nil
}

func (p *gatedPersister) PersistBatch(batch []IterationBatch) error {
	its := make([]int64, len(batch))
	for i, b := range batch {
		its[i] = b.Iteration
	}
	p.record(its)
	return nil
}

func (p *gatedPersister) batchSizes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.batches))
	for i, b := range p.batches {
		out[i] = len(b)
	}
	return out
}

// TestFlowWindowBoundsClientToDurableFlush deterministically proves that
// with a window of 1 (persist_queue_depth=1) a fast client cannot run more
// than one iteration ahead of the last durably flushed iteration, now that
// flushing is asynchronous: EndIteration(n) must block until iteration n-1
// is durable, not merely submitted.
func TestFlowWindowBoundsClientToDurableFlush(t *testing.T) {
	const iters = 5
	pers := &gatedPersister{started: make(chan []int64, iters), allow: make(chan struct{})}
	cfg := pipelineCfg(t, 1<<20, 1, 1, "v")
	ended := make(chan int64, iters)

	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				_ = dep.Server.Run()
				return
			}
			cli := dep.Client
			data := make([]float32, 32*32)
			for it := int64(0); it < iters; it++ {
				if err := cli.WriteFloat32s("v", it, data); err != nil {
					t.Error(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
				ended <- it
			}
			_ = cli.Finalize()
		})
	}()

	mustRecv := func(ch chan int64, want int64, what string) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("%s: got %d, want %d", what, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: timed out waiting for %d", what, want)
		}
	}
	mustNotRecv := func(ch chan int64, what string) {
		t.Helper()
		select {
		case got := <-ch:
			t.Fatalf("%s: client advanced to %d ahead of the durable watermark", what, got)
		case <-time.After(100 * time.Millisecond):
		}
	}

	// Iteration 0 may complete with nothing durable yet (window 1).
	mustRecv(ended, 0, "EndIteration(0)")
	// The writer picks iteration 0 up but is gated before durability.
	select {
	case <-pers.started:
	case <-time.After(10 * time.Second):
		t.Fatal("persist of iteration 0 never started")
	}
	for it := int64(1); it < iters; it++ {
		// With iteration it-1 submitted but NOT durable, EndIteration(it)
		// must block: the client would otherwise be 2 ahead of the durable
		// watermark.
		mustNotRecv(ended, fmt.Sprintf("EndIteration(%d) before %d durable", it, it-1))
		pers.allow <- struct{}{} // make iteration it-1 durable
		mustRecv(ended, it, fmt.Sprintf("EndIteration(%d) after %d durable", it, it-1))
		if it < iters-1 {
			select {
			case <-pers.started:
			case <-time.After(10 * time.Second):
				t.Fatalf("persist of iteration %d never started", it)
			}
		}
	}
	// Release the last gated call (iteration iters-1: the loop already fed
	// tokens for iterations 0..iters-2).
	go func() {
		for range pers.started {
		}
	}()
	pers.allow <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(pers.started)
}

// No entry is reused before its iteration is acked: what a plugin action saw
// of iteration 0 — held here past the flush, which the Engine doc forbids, to
// observe it — still reads as iteration 0, block pinned, while the persist of
// iteration 0 is gated and the dedicated core catalogs iteration 1; none of
// iteration 1's entries is one of them.
func TestEntriesNotReusedBeforeAck(t *testing.T) {
	cfg, err := config.ParseString(`
<simulation>
  <buffer size="1048576" cores="1"/>
  <pipeline workers="1" queue="2"/>
  <layout name="l" type="real" dimensions="32,32"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
  <event name="snap" action="snap" scope="local"/>
</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	pers := &gatedPersister{started: make(chan []int64, 2), allow: make(chan struct{}, 2)}
	snaps := make(chan []*metadata.Entry, 2)
	reg := plugin.NewRegistry()
	reg.MustRegister("snap", func(ctx *plugin.Context, _ string) error {
		snaps <- ctx.Store.Iteration(ctx.Iteration)
		return nil
	})
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, reg, Options{Persister: pers})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				_ = dep.Server.Run()
				return
			}
			cli := dep.Client
			defer cli.Finalize()
			data := make([]float32, 32*32)
			for it := int64(0); it < 2; it++ {
				for _, name := range []string{"a", "b"} {
					if err := cli.WriteFloat32s(name, it, data); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cli.Signal("snap", it); err != nil {
					t.Error(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}()
	recv := func() []*metadata.Entry {
		t.Helper()
		select {
		case es := <-snaps:
			return es
		case <-time.After(10 * time.Second):
			t.Fatal("the snap action never ran")
			return nil
		}
	}
	held := recv()
	blocks := make([]*shm.Block, len(held))
	for i, e := range held {
		blocks[i] = e.Block
	}
	select {
	case <-pers.started: // iteration 0 is taken and in the writer's hands, gated
	case <-time.After(10 * time.Second):
		t.Fatal("persist of iteration 0 never started")
	}
	next := recv() // iteration 1 is catalogued; iteration 0 still not durable
	if len(held) != 2 || len(next) != 2 {
		t.Fatalf("snapshots hold %d and %d entries, want 2 and 2", len(held), len(next))
	}
	for i, e := range held {
		want := metadata.Key{Name: []string{"a", "b"}[i], Iteration: 0, Source: 0}
		if e.Key != want || e.Block == nil || e.Block != blocks[i] || e.Block.Released() {
			t.Errorf("held entry %d of unacked iteration 0 changed: key %v, block %p (was %p)", i, e.Key, e.Block, blocks[i])
		}
		for _, n := range next {
			if n == e {
				t.Errorf("iteration 1's %v reuses the entry of unacked iteration 0's %v", n.Key, want)
			}
		}
	}
	pers.allow <- struct{}{}
	pers.allow <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBatchesBacklog deterministically forces a backlog behind a
// gated first write and asserts that a single writer then drains the whole
// backlog in one batched persister call.
func TestPipelineBatchesBacklog(t *testing.T) {
	const queue = 8
	pers := &gatedPersister{started: make(chan []int64, 16), allow: make(chan struct{}, 16)}
	cfg := pipelineCfg(t, 4<<20, 1, queue, "v")

	var srv *Server
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				srv = dep.Server
				_ = dep.Server.Run()
				return
			}
			cli := dep.Client
			data := make([]float32, 32*32)
			// queue+1 iterations: the first goes straight to the (gated)
			// writer, the rest pile up in the bounded queue while the
			// client is finally stopped by the flow window.
			for it := int64(0); it <= queue; it++ {
				if err := cli.WriteFloat32s("v", it, data); err != nil {
					t.Error(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
			_ = cli.Finalize()
		})
	}()

	// First call starts (some prefix of the backlog, gated).
	var first []int64
	select {
	case first = <-pers.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first persist call never started")
	}
	// Wait until every remaining iteration is queued behind the gate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv != nil && srv.PipelineStats().Enqueued == queue+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backlog never filled the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// Open the gate for everything; the lone writer must now drain the
	// backlog in large batches rather than one call per iteration.
	for i := 0; i < 16; i++ {
		pers.allow <- struct{}{}
	}
	go func() {
		for range pers.started {
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(pers.started)

	sizes := pers.batchSizes()
	total, maxBatch := 0, 0
	for _, s := range sizes {
		total += s
		if s > maxBatch {
			maxBatch = s
		}
	}
	if total != queue+1 {
		t.Fatalf("persisted %d iterations across %v, want %d", total, sizes, queue+1)
	}
	if maxBatch < 2 {
		t.Errorf("no batching happened: call sizes %v (first call %v)", sizes, first)
	}
	ps := srv.PipelineStats()
	if ps.BatchSize.Max < 2 {
		t.Errorf("BatchSize stats missed the batch: %+v", ps.BatchSize)
	}
	if ps.MaxInFlight < queue {
		t.Errorf("MaxInFlight = %d, want >= %d", ps.MaxInFlight, queue)
	}
}

// slowPersister sleeps a fixed latency per durable call — batch or not —
// modelling a persister dominated by fixed per-call cost (file create,
// fsync, PFS round trip).
type slowPersister struct {
	delay time.Duration
	calls atomic.Int64
}

func (p *slowPersister) Persist(int64, []*metadata.Entry) error {
	p.calls.Add(1)
	time.Sleep(p.delay)
	return nil
}

func (p *slowPersister) PersistBatch(batch []IterationBatch) error {
	p.calls.Add(1)
	time.Sleep(p.delay)
	return nil
}

// TestAsyncPipelineDecouplesClientFromPersistLatency runs the same workload
// against the synchronous baseline and the 4-writer write-behind pipeline
// with a deliberately slow persister, and asserts the pipeline keeps client
// iteration completion essentially independent of persist latency.
func TestAsyncPipelineDecouplesClientFromPersistLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test in short mode")
	}
	const (
		iters = 40
		delay = 5 * time.Millisecond
	)
	run := func(workers, queue int) time.Duration {
		cfg := pipelineCfg(t, 8<<20, workers, queue, "v")
		pers := &slowPersister{delay: delay}
		var clientDur time.Duration
		err := mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				if err := dep.Server.Run(); err != nil {
					t.Error(err)
				}
				return
			}
			cli := dep.Client
			data := make([]float32, 32*32)
			start := time.Now()
			for it := int64(0); it < iters; it++ {
				if err := cli.WriteFloat32s("v", it, data); err != nil {
					t.Error(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
			clientDur = time.Since(start)
			_ = cli.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		return clientDur
	}

	syncDur := run(0, 1)
	asyncDur := run(4, 8)
	t.Logf("client-side %d iterations: sync=%v async(4 writers)=%v (%.1fx)",
		iters, syncDur, asyncDur, float64(syncDur)/float64(asyncDur))
	// Sync couples every iteration to the persist latency, so it needs at
	// least (iters-1)*delay. Async with 4 writers and batching must beat it
	// by a wide margin; 3x is a deliberately conservative floor for CI.
	if asyncDur*3 > syncDur {
		t.Errorf("async pipeline too slow: sync=%v async=%v, want >=3x speedup", syncDur, asyncDur)
	}
}

// TestSyncBaselineStatsTrackFailures keeps the workers=0 baseline's
// exported stats honest: errored iterations must show up in Failures, so
// sync-vs-async comparisons of PipelineStats compare like with like.
func TestSyncBaselineStatsTrackFailures(t *testing.T) {
	boom := errors.New("sync persist failure")
	cfg := pipelineCfg(t, 1<<20, 0, 1, "v")
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: failingPersister{boom}})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			srv = dep.Server
			_ = dep.Server.Run()
			return
		}
		cli := dep.Client
		data := make([]float32, 32*32)
		for it := int64(0); it < 3; it++ {
			if err := cli.WriteFloat32s("v", it, data); err != nil {
				t.Error(err)
				return
			}
			if err := cli.EndIteration(it); err != nil {
				t.Error(err)
				return
			}
		}
		_ = cli.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := srv.PipelineStats()
	if ps.Workers != 0 {
		t.Errorf("Workers = %d, want 0 for the sync baseline", ps.Workers)
	}
	if ps.Enqueued != 3 || ps.Completed != 3 || ps.Failures != 3 {
		t.Errorf("stats = enqueued %d / completed %d / failures %d, want 3/3/3",
			ps.Enqueued, ps.Completed, ps.Failures)
	}
	// The same pipeline as every other worker count keeps the same books: a
	// flush latency per iteration, one iteration per persist call, no writer
	// to be busy — and each failed persist reported once.
	if ps.FlushLatency.N != 3 || ps.BatchSize.Mean != 1 || len(ps.WriterBusy) != 0 {
		t.Errorf("flush latencies %d, batch size mean %v, writer slots %d, want 3, 1, 0",
			ps.FlushLatency.N, ps.BatchSize.Mean, len(ps.WriterBusy))
	}
	errs := srv.HandleErrors()
	if len(errs) != 3 {
		t.Fatalf("HandleErrors = %v, want the 3 failed iterations once each", errs)
	}
	for _, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("HandleErrors holds %v, want the persist failure", err)
		}
	}
}
