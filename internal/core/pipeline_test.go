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
	"damaris/internal/obs"
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
		if e.Block.Released() {
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
		if e.Block.Released() {
			p.violations.Add(1)
		}
	}
	return nil
}

// TestPipelineStressRace is the race-detector stress test: many clients ×
// many iterations × multiple writers with injected persister failures.
// It asserts orderly drain on Close, error surfacing through Run, the
// no-release-before-durable invariant, and payload integrity of every
// non-failed iteration. TestPipelineAcksInOrderUnderFailures holds the ack
// order.
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
			data[i] = float32(comm.Rank())
		}
		for it := int64(0); it < iters; it++ {
			for _, name := range []string{"a", "b"} {
				if err := cli.Write(name, it, mpi.Float32sToBytes(data)); err != nil {
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
}

// TestPipelineAcksInOrderUnderFailures: with 4 writers racing over a
// persister that takes a varying time and fails some iterations, every
// iteration is acked exactly once, strictly in submission order, each with
// its own persist outcome.
func TestPipelineAcksInOrderUnderFailures(t *testing.T) {
	const iters = 200
	boom := errors.New("injected persist failure")
	pers := &checkingPersister{failIter: func(it int64) bool { return it%7 == 3 }, boom: boom}
	var acked []int64
	var ackErrs []error
	p := newPipeline(pipelineSpec{persister: slowEvery{pers}, workers: 4, depth: 4,
		onDurable: func(it int64, err error) {
			acked = append(acked, it) // ack delivery is serialized (under the pipeline's lock)
			ackErrs = append(ackErrs, err)
		}})
	for it := int64(0); it < iters; it++ {
		p.submit(it, []*metadata.Entry{spillEntry("v", it, 0, []byte{byte(it)})})
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if len(acked) != iters {
		t.Fatalf("%d acks for %d iterations", len(acked), iters)
	}
	for i, it := range acked {
		if it != int64(i) {
			t.Fatalf("iterations acked out of order: %v", acked)
		}
		if failed := it%7 == 3; failed != errors.Is(ackErrs[i], boom) {
			t.Errorf("iteration %d acked with %v", it, ackErrs[i])
		}
	}
}

// slowEvery delays every fourth iteration's persist, so writers finish out
// of submission order.
type slowEvery struct{ Persister }

func (p slowEvery) Persist(it int64, entries []*metadata.Entry) error {
	if it%4 == 0 {
		time.Sleep(time.Millisecond)
	}
	return p.Persister.Persist(it, entries)
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
				if err := cli.Write("v", it, mpi.Float32sToBytes(data)); err != nil {
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

	// Iteration 0 may complete with nothing durable yet (window 1).
	mustRecv(t, ended, 0, "EndIteration(0)")
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
		mustNotRecv(t, ended, fmt.Sprintf("EndIteration(%d) before %d durable", it, it-1))
		pers.allow <- struct{}{} // make iteration it-1 durable
		mustRecv(t, ended, it, fmt.Sprintf("EndIteration(%d) after %d durable", it, it-1))
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

// mustRecv fails the test unless the client's next ended iteration is want.
func mustRecv(t *testing.T, ch chan int64, want int64, what string) {
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

// mustNotRecv fails the test if the client ends an iteration within 100 ms.
func mustNotRecv(t *testing.T, ch chan int64, what string) {
	t.Helper()
	select {
	case got := <-ch:
		t.Fatalf("%s: client advanced to %d ahead of the durable watermark", what, got)
	case <-time.After(100 * time.Millisecond):
	}
}

// holdIteration holds one iteration's persist until release is closed,
// before the gate, so another writer's iteration can pass the gate first.
type holdIteration struct {
	*gatedPersister
	it      int64
	release chan struct{}
}

func (p holdIteration) Persist(it int64, entries []*metadata.Entry) error {
	if it == p.it {
		<-p.release
	}
	return p.gatedPersister.Persist(it, entries)
}

// TestWindowFollowsInOrderAckNotCompletion: with two writers, iteration 1
// becomes durable while iteration 0 is still held. A client at the window
// (EndIteration(1), window 1) must stay there — the window follows the
// in-order ack, not completion order — until iteration 0 is durable too,
// and then advance.
func TestWindowFollowsInOrderAckNotCompletion(t *testing.T) {
	gate := &gatedPersister{started: make(chan []int64, 2), allow: make(chan struct{})}
	pers := holdIteration{gatedPersister: gate, it: 0, release: make(chan struct{})}
	cfg := pipelineCfg(t, 1<<20, 2, 1, "v")
	ended := make(chan int64, 2)
	servers := make(chan *Server, 1)
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				servers <- dep.Server
				_ = dep.Server.Run()
				return
			}
			cli := dep.Client
			data := mpi.Float32sToBytes(make([]float32, 32*32))
			for it := int64(0); it < 2; it++ {
				if err := cli.Write("v", it, data); err != nil {
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
	srv := <-servers
	mustRecv(t, ended, 0, "EndIteration(0)")
	select {
	case its := <-gate.started:
		if len(its) != 1 || its[0] != 1 {
			t.Fatalf("the gate saw %v first, want iteration 1", its)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("persist of iteration 1 never started")
	}
	gate.allow <- struct{}{} // iteration 1 durable, iteration 0 still held
	deadline := time.Now().Add(10 * time.Second)
	for srv.PipelineStats().Completed != 1 {
		if time.Now().After(deadline) {
			t.Fatal("iteration 1 never completed")
		}
		time.Sleep(time.Millisecond)
	}
	mustNotRecv(t, ended, "EndIteration(1) with 1 durable and 0 not")
	close(pers.release)
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("persist of iteration 0 never reached the gate")
	}
	gate.allow <- struct{}{} // iteration 0 durable: the ack passes 0 and 1
	mustRecv(t, ended, 1, "EndIteration(1) after 0 durable")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ps := srv.PipelineStats(); ps.Completed != 2 || ps.Window != 1 {
		t.Errorf("completed %d iterations at window %d, want 2 at 1", ps.Completed, ps.Window)
	}
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
	err = reg.Register("snap", func(ctx *plugin.Context, _ string) error {
		snaps <- ctx.Store.Iteration(ctx.Iteration)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
					if err := cli.Write(name, it, mpi.Float32sToBytes(data)); err != nil {
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
	blocks := make([]shm.Block, len(held))
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
		if e.Key != want || e.Block == (shm.Block{}) || e.Block != blocks[i] || e.Block.Released() {
			t.Errorf("held entry %d of unacked iteration 0 changed: key %v, block %v (was %v)", i, e.Key, e.Block, blocks[i])
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
				if err := cli.Write("v", it, mpi.Float32sToBytes(data)); err != nil {
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
	total, largest := 0, 0
	for _, s := range sizes {
		total += s
		largest = max(largest, s)
	}
	if total != queue+1 {
		t.Fatalf("persisted %d iterations across %v, want %d", total, sizes, queue+1)
	}
	if largest < 2 {
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
// against one writer behind a one-deep queue and the 4-writer write-behind
// pipeline with a deliberately slow persister, and asserts the deep pipeline
// keeps client iteration completion essentially independent of persist
// latency.
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
				if err := cli.Write("v", it, mpi.Float32sToBytes(data)); err != nil {
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

	coupledDur := run(1, 1)
	asyncDur := run(4, 8)
	t.Logf("client-side %d iterations: coupled(1 writer, queue 1)=%v async(4 writers)=%v (%.1fx)",
		iters, coupledDur, asyncDur, float64(coupledDur)/float64(asyncDur))
	// A window of one iteration and batches of one couple every iteration
	// after the first to the persist latency, so the coupled run needs at
	// least (iters-2)*delay. Async with 4 writers and batching must beat it
	// by a wide margin; 3x is a deliberately conservative floor for CI.
	if asyncDur*3 > coupledDur {
		t.Errorf("async pipeline too slow: coupled=%v async=%v, want >=3x speedup", coupledDur, asyncDur)
	}
}

// TestClientCountsFlowWaits: against a persister slower than the client, at
// queue 1 an EndIteration waits for the previous iteration to be durable, so
// the client counts flow waits and the dedicated core's registry reports
// them, live, before the client finalizes; at a queue deeper than the run no
// EndIteration ever waits. The buffer holds every iteration, so no
// reservation waits either way.
func TestClientCountsFlowWaits(t *testing.T) {
	const iters = 6
	registryWaits := func(plane *obs.Plane) map[string]float64 {
		got := map[string]float64{}
		for _, s := range plane.Registry().Gather() {
			if s.Name == "damaris_client_waits_total" {
				got[s.Labels[1]] = s.Value
			}
		}
		return got
	}
	for _, queue := range []int{1, iters + 1} {
		cfg := pipelineCfg(t, 8<<20, 1, queue, "v")
		plane := obs.NewPlane(0)
		var flow, buffer int
		var live map[string]float64
		err := mpi.Run(2, 2, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: &slowPersister{delay: 5 * time.Millisecond}, Obs: plane})
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
			data := mpi.Float32sToBytes(make([]float32, 32*32))
			for it := int64(0); it < iters; it++ {
				if err := cli.Write("v", it, data); err != nil {
					t.Error(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
			flow, buffer = cli.Waits()
			live = registryWaits(plane)
			_ = cli.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		if (queue == 1) != (flow > 0) || buffer != 0 {
			t.Errorf("queue %d: %d flow waits and %d buffer waits in %d iterations", queue, flow, buffer, iters)
		}
		if live["flow"] != float64(flow) || live["buffer"] != float64(buffer) || len(live) != 2 {
			t.Errorf("queue %d: registry reads %v before Finalize, want flow %d and buffer %d", queue, live, flow, buffer)
		}
		got := registryWaits(plane)
		if got["flow"] != float64(flow) || got["buffer"] != 0 || len(got) != 2 {
			t.Errorf("queue %d: registry reads %v, want flow %d and buffer 0", queue, got, flow)
		}
	}
}
