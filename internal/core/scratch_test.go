package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// flakyPersister fails every Persist while tripped, and retains entries in
// a MemPersister once healthy again.
type flakyPersister struct {
	fail atomic.Bool
	mem  MemPersister

	calls    atomic.Int64
	failures atomic.Int64
}

func (p *flakyPersister) Persist(it int64, entries []*metadata.Entry) error {
	p.calls.Add(1)
	if p.fail.Load() {
		p.failures.Add(1)
		return fmt.Errorf("injected backend outage")
	}
	return p.mem.Persist(it, entries)
}

// spillEntry builds a heap-backed entry the way the replay path produces
// them: no shared-memory block, payload inline.
func spillEntry(name string, it int64, source int, data []byte) *metadata.Entry {
	return &metadata.Entry{
		Key:    metadata.Key{Name: name, Iteration: it, Source: source},
		Layout: layout.MustNew(layout.Byte, int64(len(data))),
		Inline: data,
	}
}

func waitSpill(t *testing.T, sc *scratch, cond func(SpillStats) bool) SpillStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sc.stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for spill state, have %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestScratchReplayAfterBackendRecovers spills while the backend is down,
// confirms the drainer retries with backoff, then heals the backend and
// checks every iteration lands through the normal store path and the
// scratch store is emptied. The large case holds the point of spilling: the
// backlog lives in the scratch store, so the heap does not grow with it.
func TestScratchReplayAfterBackendRecovers(t *testing.T) {
	for _, tc := range []struct {
		name        string
		iters, size int
		maxHeapGrow uint64 // 0 = not measured
	}{
		{name: "small", iters: 3, size: 9},
		{name: "32x1MiB", iters: 32, size: 1 << 20, maxHeapGrow: 8 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := func(it int64) []byte {
				data := make([]byte, tc.size)
				for i := range data {
					data[i] = byte(int64(i)*7 + it)
				}
				return data
			}
			dir := t.TempDir()
			pers := &flakyPersister{}
			pers.fail.Store(true)
			sc, err := openScratch(fileBackend(t, dir), 2, pers)
			if err != nil {
				t.Fatal(err)
			}
			var before, during runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			iters := int64(tc.iters)
			for it := int64(0); it < iters; it++ {
				if err := sc.spill(it, []*metadata.Entry{spillEntry("v", it, 4, payload(it))}); err != nil {
					t.Fatalf("spill it %d: %v", it, err)
				}
			}
			st := waitSpill(t, sc, func(s SpillStats) bool { return s.Failures >= 2 })
			if st.Spilled != iters || st.Replayed != 0 || st.Pending != tc.iters {
				t.Errorf("mid-outage stats = %+v, want %d spilled and pending, 0 replayed", st, iters)
			}
			runtime.GC()
			runtime.ReadMemStats(&during)
			if grew := int64(during.HeapInuse) - int64(before.HeapInuse); tc.maxHeapGrow > 0 && grew > int64(tc.maxHeapGrow) {
				t.Errorf("heap grew %d bytes with %d bytes spilled and pending, want < %d: a spill must leave the heap",
					grew, st.Bytes, tc.maxHeapGrow)
			}

			pers.fail.Store(false)
			st = waitSpill(t, sc, func(s SpillStats) bool { return s.Pending == 0 })
			if st.Replayed != iters || st.Stranded != 0 {
				t.Errorf("post-recovery stats = %+v, want %d replayed, 0 stranded", st, iters)
			}
			if err := sc.close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			for it := int64(0); it < iters; it++ {
				k := metadata.Key{Name: "v", Iteration: it, Source: 4}
				got, ok := pers.mem.Get(k)
				if !ok || !bytes.Equal(got, payload(it)) {
					t.Errorf("replayed %v: %d bytes, %v; want the %d spilled", k, len(got), ok, tc.size)
				}
			}
			if names := objectNames(t, fileBackend(t, dir)); len(names) != 0 {
				t.Errorf("drained scratch store holds %v, want nothing", names)
			}
		})
	}
}

// TestScratchStrandsAtCloseAndRecoversNextStart closes the scratch while
// the backend is still down: objects must stay on disk, close must report
// them, and a fresh openScratch against a healthy backend must replay them.
func TestScratchStrandsAtCloseAndRecoversNextStart(t *testing.T) {
	dir := t.TempDir()
	pers := &flakyPersister{}
	pers.fail.Store(true)
	sc, err := openScratch(fileBackend(t, dir), 1, pers)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 2
	for it := int64(0); it < iters; it++ {
		data := []byte(fmt.Sprintf("crash-%d", it))
		if err := sc.spill(it, []*metadata.Entry{spillEntry("v", it, 7, data)}); err != nil {
			t.Fatal(err)
		}
	}
	err = sc.close()
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("close with backend down = %v, want stranded error", err)
	}
	if names := objectNames(t, fileBackend(t, dir)); len(names) != iters {
		t.Fatalf("stranded scratch store must keep its objects, holds %v", names)
	}

	// Next start: same directory, healthy backend.
	pers2 := &flakyPersister{}
	sc2, err := openScratch(fileBackend(t, dir), 1, pers2)
	if err != nil {
		t.Fatal(err)
	}
	st := waitSpill(t, sc2, func(s SpillStats) bool { return s.Pending == 0 })
	if st.Recovered != iters || st.Replayed != iters {
		t.Errorf("recovery stats = %+v, want %d recovered and replayed", st, iters)
	}
	if err := sc2.close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	for it := int64(0); it < iters; it++ {
		k := metadata.Key{Name: "v", Iteration: it, Source: 7}
		got, ok := pers2.mem.Get(k)
		if !ok || string(got) != fmt.Sprintf("crash-%d", it) {
			t.Errorf("recovered %v = %q, %v", k, got, ok)
		}
	}
	if names := objectNames(t, fileBackend(t, dir)); len(names) != 0 {
		t.Errorf("scratch store after recovery holds %v, want nothing", names)
	}
}

// TestScratchCrashBeforeCommitRecoversWhatCommitted crashes a spill
// before its object is published: iteration 0 commits, iteration 1's commit
// fails the way a crash before the rename would. The spill must report the
// error and leave no object for iteration 1, only an invisible temp file;
// the next start must recover and replay exactly iteration 0, its bytes
// intact.
func TestScratchCrashBeforeCommitRecoversWhatCommitted(t *testing.T) {
	dir := t.TempDir()
	crash := errors.New("injected crash before publish")
	local, err := store.NewFileStore(dir, store.Options{Fault: store.FailNth(store.OpCommit, 2, crash)})
	if err != nil {
		t.Fatal(err)
	}
	pers := &flakyPersister{}
	pers.fail.Store(true)
	sc, err := openScratch(local, 1, pers)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.spill(0, []*metadata.Entry{spillEntry("v", 0, 1, []byte("whole"))}); err != nil {
		t.Fatal(err)
	}
	if err := sc.spill(1, []*metadata.Entry{spillEntry("v", 1, 1, []byte("torn"))}); !errors.Is(err, crash) {
		t.Fatalf("spill through a crashing commit = %v, want %v", err, crash)
	}
	if names := objectNames(t, fileBackend(t, dir)); !slices.Equal(names, []string{spillName(0)}) {
		t.Errorf("scratch store after the crash holds %v, want only iteration 0", names)
	}
	if err := sc.close(); err == nil {
		t.Fatal("close with backend down should report the stranded iteration")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temps int
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			temps++
		}
	}
	if temps != 1 {
		t.Errorf("%d hidden temp files after the crash, want the torn one", temps)
	}

	pers2 := &flakyPersister{}
	sc2, err := openScratch(fileBackend(t, dir), 1, pers2)
	if err != nil {
		t.Fatal(err)
	}
	st := waitSpill(t, sc2, func(s SpillStats) bool { return s.Pending == 0 })
	if st.Recovered != 1 || st.Replayed != 1 {
		t.Errorf("recovery stats = %+v, want exactly the committed iteration", st)
	}
	if err := sc2.close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := pers2.mem.Get(metadata.Key{Name: "v", Iteration: 0, Source: 1}); !ok || string(got) != "whole" {
		t.Errorf("recovered iteration 0 = %q, %v", got, ok)
	}
	if pers2.mem.Len() != 1 {
		t.Errorf("replayed %d datasets, want iteration 0's one", pers2.mem.Len())
	}
}

// A restarted run may spill an iteration a previous run left stranded. The
// new object replaces the old one, and the drainer deletes it only after
// replaying the queued spill too: the newer bytes are what lands.
func TestScratchRespillOfARecoveredIteration(t *testing.T) {
	dir := t.TempDir()
	down := &flakyPersister{}
	down.fail.Store(true)
	sc, err := openScratch(fileBackend(t, dir), 1, down)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.spill(0, []*metadata.Entry{spillEntry("v", 0, 2, []byte("old"))}); err != nil {
		t.Fatal(err)
	}
	if err := sc.close(); err == nil {
		t.Fatal("close with backend down should report the stranded iteration")
	}

	gate := make(chan struct{})
	pers := &blockingMemPersister{gate: gate}
	sc2, err := openScratch(fileBackend(t, dir), 1, pers)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.spill(0, []*metadata.Entry{spillEntry("v", 0, 2, []byte("new"))}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	st := waitSpill(t, sc2, func(s SpillStats) bool { return s.Pending == 0 })
	if err := sc2.close(); err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 || st.Spilled != 1 || st.Replayed != 2 {
		t.Errorf("stats = %+v, want 1 recovered, 1 spilled, 2 replayed", st)
	}
	if got, _ := pers.mem.Get(metadata.Key{Name: "v", Iteration: 0, Source: 2}); string(got) != "new" {
		t.Errorf("iteration 0 = %q, want the later spill's bytes", got)
	}
	if names := objectNames(t, fileBackend(t, dir)); len(names) != 0 {
		t.Errorf("scratch store holds %v, want it drained", names)
	}
}

// An iteration with no entries writes no object, so it is replayed the
// moment it is spilled: nothing is pending, and close reports nothing
// stranded.
func TestScratchSpillOfAnEmptyIteration(t *testing.T) {
	dir := t.TempDir()
	sc, err := openScratch(fileBackend(t, dir), 1, &flakyPersister{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.spill(3, nil); err != nil {
		t.Fatal(err)
	}
	if st := sc.stats(); st.Spilled != 1 || st.Replayed != 1 || st.Pending != 0 {
		t.Errorf("stats = %+v, want 1 spilled and replayed, none pending", st)
	}
	if err := sc.close(); err != nil {
		t.Fatal(err)
	}
	if names := objectNames(t, fileBackend(t, dir)); len(names) != 0 {
		t.Errorf("scratch store holds %v, want nothing", names)
	}
}

// A configuration built in code with a spill dir and no threshold spills
// after the documented default, not after one backpressured submit.
func TestSpillAfterZeroIsTheDefault(t *testing.T) {
	cfg := sizesCfg(t, 1, 1, 0)
	cfg.SpillDir = t.TempDir()
	cfg.SpillAfter = 0
	ps, _ := runNode(t, cfg, Options{Persister: &MemPersister{}}, 2)
	if ps.Spill.Threshold != config.DefaultSpillAfter {
		t.Errorf("spill threshold = %d, want config.DefaultSpillAfter (%d)", ps.Spill.Threshold, config.DefaultSpillAfter)
	}
}

func appendFloat32LE(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// blockingMemPersister holds every Persist call until the gate closes —
// a backend that has stopped responding entirely — then retains entries
// like MemPersister.
type blockingMemPersister struct {
	gate <-chan struct{}
	mem  MemPersister
}

func (p *blockingMemPersister) Persist(it int64, entries []*metadata.Entry) error {
	<-p.gate
	return p.mem.Persist(it, entries)
}

// TestPipelineSubmitSpillsOldestUnderSustainedBackpressure drives the
// pipeline's submit path directly (the event loop's role) against a backend
// that has stopped responding: with a 1-deep queue and threshold 1, the
// third and fourth submissions must each spill the oldest queued iteration
// instead of blocking the event loop. Spilled iterations may not ack ahead
// of the stuck head-of-line iteration (the TCP-style watermark), and once
// the backend recovers, every iteration — direct or replayed — must be
// durable with acks delivered strictly in submission order.
func TestPipelineSubmitSpillsOldestUnderSustainedBackpressure(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	pers := &blockingMemPersister{gate: gate}
	sc, err := openScratch(fileBackend(t, dir), 1, pers)
	if err != nil {
		t.Fatal(err)
	}
	var ackMu sync.Mutex
	var acked []int64
	var ackErrs []error
	p := newPipeline(pipelineSpec{persister: pers, workers: 1, depth: 1, scratch: sc,
		onDurable: func(it int64, err error) {
			ackMu.Lock()
			acked = append(acked, it)
			ackErrs = append(ackErrs, err)
			ackMu.Unlock()
		}})

	payload := func(it int64) []byte { return []byte(fmt.Sprintf("iteration-%d", it)) }
	p.submit(0, []*metadata.Entry{spillEntry("v", 0, 0, payload(0))})
	// Wait for the writer to pull iteration 0 and block inside the backend,
	// so the queue slot is free and the submit sequence below is fixed.
	deadline := time.Now().Add(10 * time.Second)
	for len(p.jobs) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up iteration 0")
		}
		time.Sleep(time.Millisecond)
	}
	p.submit(1, []*metadata.Entry{spillEntry("v", 1, 0, payload(1))}) // fills the queue
	p.submit(2, []*metadata.Entry{spillEntry("v", 2, 0, payload(2))}) // queue full: spills 1
	p.submit(3, []*metadata.Entry{spillEntry("v", 3, 0, payload(3))}) // queue full: spills 2

	st := sc.stats()
	if st.Spilled != 2 || st.Pending != 2 {
		t.Fatalf("spilled = %d, pending = %d, want 2 and 2 (iterations 1 and 2, the backend still stuck)", st.Spilled, st.Pending)
	}
	ackMu.Lock()
	if len(acked) != 0 {
		t.Errorf("acks %v delivered while head-of-line iteration 0 is stuck", acked)
	}
	ackMu.Unlock()

	close(gate) // backend recovers
	p.close()
	waitSpill(t, sc, func(s SpillStats) bool { return s.Pending == 0 })
	if err := sc.close(); err != nil {
		t.Fatalf("scratch close: %v", err)
	}

	ackMu.Lock()
	defer ackMu.Unlock()
	if want := []int64{0, 1, 2, 3}; len(acked) != len(want) {
		t.Fatalf("acked %v, want %v", acked, want)
	} else {
		for i, it := range want {
			if acked[i] != it {
				t.Fatalf("acked %v, want %v (order must follow submission)", acked, want)
			}
			if ackErrs[i] != nil {
				t.Errorf("iteration %d acked with error %v", it, ackErrs[i])
			}
		}
	}
	st = sc.stats()
	if st.Replayed != 2 || st.Stranded != 0 {
		t.Errorf("replay stats = %+v, want both spilled iterations replayed", st)
	}
	for it := int64(0); it < 4; it++ {
		k := metadata.Key{Name: "v", Iteration: it, Source: 0}
		got, ok := pers.mem.Get(k)
		if !ok || string(got) != string(payload(it)) {
			t.Errorf("iteration %d = %q, %v after recovery", it, got, ok)
		}
	}
	if names := objectNames(t, fileBackend(t, dir)); len(names) != 0 {
		t.Errorf("scratch store holds %v, want it drained", names)
	}
}

// slowMemPersister retains entries like MemPersister but charges a fixed
// latency per call, so a small bounded queue backs up and the spill path
// can engage.
type slowMemPersister struct {
	delay time.Duration
	mem   MemPersister
}

func (p *slowMemPersister) Persist(it int64, entries []*metadata.Entry) error {
	time.Sleep(p.delay)
	return p.mem.Persist(it, entries)
}

// TestServerSpillWiring is the end-to-end degraded-mode run: a slow backend
// behind a 1-deep queue lets the event loop spill whenever it outruns the
// writer, clients keep completing iterations, and after Close every
// iteration — spilled or not — is durable through the store path with the
// scratch store drained. Whether any iteration actually spills depends on
// event-loop/writer scheduling, so that count is logged, not asserted; the
// deterministic spill mechanics are covered above.
func TestServerSpillWiring(t *testing.T) {
	const iters = 12
	dir := t.TempDir()
	cfg, err := config.ParseString(fmt.Sprintf(`
<simulation>
  <buffer size="%d" cores="1"/>
  <pipeline workers="1" queue="1"/>
  <spill dir=%q after="1"/>
  <layout name="l" type="real" dimensions="16,16"/>
  <variable name="v" layout="l"/>
</simulation>`, 4<<20, dir))
	if err != nil {
		t.Fatal(err)
	}
	pers := &slowMemPersister{delay: 15 * time.Millisecond}
	var srv *Server
	var source int
	err = mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			srv = dep.Server
			if err := dep.Server.Run(); err != nil {
				t.Error(err)
			}
			return
		}
		cli := dep.Client
		source = comm.Rank()
		data := make([]float32, 16*16)
		for it := int64(0); it < iters; it++ {
			for i := range data {
				data[i] = float32(it)
			}
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
	if err != nil {
		t.Fatal(err)
	}
	ps := srv.PipelineStats()
	if !ps.Spill.Enabled || ps.Spill.Threshold != 1 {
		t.Fatalf("spill not attached: %+v", ps.Spill)
	}
	t.Logf("spilled %d of %d iterations", ps.Spill.Spilled, iters)
	if ps.Spill.Replayed != ps.Spill.Spilled || ps.Spill.Pending != 0 || ps.Spill.Stranded != 0 {
		t.Errorf("spill backlog not fully replayed: %+v", ps.Spill)
	}
	if ps.Completed != iters || ps.Failures != 0 {
		t.Errorf("pipeline completed %d failures %d, want %d/0", ps.Completed, ps.Failures, iters)
	}
	// Every iteration must be durable through the store path with the bytes
	// the client wrote, whether it travelled the queue or the scratch store.
	for it := int64(0); it < iters; it++ {
		k := metadata.Key{Name: "v", Iteration: it, Source: source}
		b, ok := pers.mem.Get(k)
		if !ok {
			t.Errorf("iteration %d missing after drain", it)
			continue
		}
		want := make([]byte, 0, 16*16*4)
		for i := 0; i < 16*16; i++ {
			want = appendFloat32LE(want, float32(it))
		}
		if string(b) != string(want) {
			t.Errorf("iteration %d payload mismatch (%d bytes)", it, len(b))
		}
	}
}

// A stage that fails to open fails the deployment on the server rank, and
// what the server had opened for itself by then — the obj:// backend, the
// encode pool — is closed again, with no pipeline writer left behind. The
// spill dir sits under a regular file, which Config.Validate cannot see. The
// failed server sends no handshake: the rank aborts its world, as
// cm1.RunWorld does, which unwinds the client waiting for one.
func TestDeployClosesWhatItOpenedWhenAStageFails(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := config.ParseString(fmt.Sprintf(`
<simulation>
  <buffer size="1048576" cores="1"/>
  <pipeline workers="2" queue="2" encode_workers="2"/>
  <store backend="obj://%s"/>
  <spill dir=%q after="1"/>
  <layout name="l" type="real" dimensions="8,8"/>
  <variable name="v" layout="l"/>
</simulation>`, t.TempDir(), filepath.Join(blocker, "spill")))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	serverErr := mpi.Run(2, 2, func(comm *mpi.Comm) {
		if dep, err := Deploy(comm, cfg, nil, Options{}); err != nil {
			comm.Abort(err)
		} else if !dep.IsClient() {
			t.Error("the server rank deployed over an uncreatable spill dir")
			dep.Server.Close()
		}
	})
	if serverErr == nil || !strings.Contains(serverErr.Error(), "scratch dir") {
		t.Fatalf("Deploy error on the server rank = %v, want the scratch dir failure", serverErr)
	}
	// Stopped workers unwind asynchronously; leaked ones never do.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the failed Deploy, %d before it", after, before)
	}
}
