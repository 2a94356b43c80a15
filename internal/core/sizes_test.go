package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/schedule"
	"damaris/internal/store"
)

// sizesCfg builds a config with the pipeline's three sizes set.
func sizesCfg(t *testing.T, workers, queue, encode int) *config.Config {
	t.Helper()
	xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="1"/>
  <pipeline workers="%d" queue="%d" encode_workers="%d"/>
  <layout name="l" type="real" dimensions="16,4"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
</simulation>`, workers, queue, encode)
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runNode deploys 1 node x 4 cores with the given config and persister,
// every client writing both variables for `iters` iterations, and returns
// the server's stats.
func runNode(t *testing.T, cfg *config.Config, opts Options, iters int) (PipelineStats, *Server) {
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
					if err := cli.Write(name, it, mpi.Float32sToBytes(fieldData(comm.Rank()))); err != nil {
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

// perIterScheduler is a non-batch-aware Scheduler: its presence forces the
// pipeline to one-iteration batches, which makes off-mode DSF file names
// (and therefore the whole output directory) deterministic for the golden
// comparison below.
type perIterScheduler struct{}

func (perIterScheduler) WaitTurn(int64) {}

// The determinism invariant: the pipeline's sizes may only change *when*
// work overlaps, never output bytes. Every static (workers, queue,
// encode_workers) — under different injected store latencies, i.e. different
// interleavings of writers and encoders — must leave a shuffle+gzip DSF
// directory byte-identical to the smallest configuration's.
func TestControlDecisionSequencesByteIdentical(t *testing.T) {
	run := func(lat time.Duration, workers, queue, encode int) map[string][]byte {
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
		pers := &DSFPersister{Backend: backend, Codec: dsf.ShuffleGzip}
		// An external persister brings its own pool; the server leaves it alone.
		pool := dsf.NewEncodePool(encode)
		defer pool.Close()
		pers.SetEncodePool(pool)
		runNode(t, sizesCfg(t, workers, queue, encode), Options{Persister: pers, Scheduler: perIterScheduler{}}, 12)
		return readDir(t, dir)
	}

	ref := run(0, 1, 1, 0)
	if len(ref) != 12 {
		t.Fatalf("w1 q1 e0 run produced %d objects, want one per iteration", len(ref))
	}
	for name, variant := range map[string]map[string][]byte{
		"w1 q1 e0/slow-store": run(3*time.Millisecond, 1, 1, 0),
		"w1 q4 e1":            run(1*time.Millisecond, 1, 4, 1),
		"w2 q2 e2":            run(2*time.Millisecond, 2, 2, 2),
		"w3 q1 e4":            run(1*time.Millisecond, 3, 1, 4),
		"w4 q4 e0":            run(1*time.Millisecond, 4, 4, 0),
		"w4 q4 e2":            run(2*time.Millisecond, 4, 4, 2),
		"w0 q1 e3/inline":     run(0, 0, 1, 3),
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
				t.Errorf("%s: object %s differs from the w1 q1 e0 baseline", name, obj)
			}
		}
	}
}

// Same invariant through the aggregation tier: one merged object per node per
// epoch, byte-identical for every static (workers, queue, encode_workers) —
// here the encode pool is the leader's own.
func TestControlAggregatedByteIdentical(t *testing.T) {
	run := func(workers, queue, encode int) map[string][]byte {
		dir := t.TempDir()
		xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="2"/>
  <pipeline workers="%d" queue="%d" encode_workers="%d"/>
  <aggregate mode="core"/>
  <layout name="field" type="real" dimensions="16,4"/>
  <variable name="temp" layout="field"/>
  <variable name="wind" layout="field"/>
</simulation>`, workers, queue, encode)
		cfg, err := config.ParseString(xml)
		if err != nil {
			t.Fatal(err)
		}
		_ = runAggregated(t, cfg, Options{OutputDir: dir}, 8)
		return readDir(t, dir)
	}

	ref := run(2, 4, 0)
	if len(ref) != 2*8 {
		t.Fatalf("w2 q4 e0 aggregated run produced %d objects, want one per node per epoch", len(ref))
	}
	for _, sz := range [][3]int{{1, 1, 0}, {1, 2, 2}, {4, 2, 1}, {3, 6, 3}} {
		got := run(sz[0], sz[1], sz[2])
		if len(got) != len(ref) {
			t.Fatalf("w%d q%d e%d aggregated run produced %d objects, want %d", sz[0], sz[1], sz[2], len(got), len(ref))
		}
		for name, want := range ref {
			if string(got[name]) != string(want) {
				t.Errorf("merged object %s differs between w2 q4 e0 and w%d q%d e%d", name, sz[0], sz[1], sz[2])
			}
		}
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
