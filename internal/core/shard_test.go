package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// shardCfg builds a config with the given pipeline knobs and an optional
// <shards> element (empty = the pre-sharding classic loop).
func shardCfg(t *testing.T, workers, queue int, shardsXML string) *config.Config {
	t.Helper()
	xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="1"/>
  <pipeline workers="%d" queue="%d"/>
  %s
  <layout name="l" type="real" dimensions="16,4"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
</simulation>`, workers, queue, shardsXML)
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		shardsXML string
		clients   int
		want      int
	}{
		{"", 4, 1},                    // no element: classic loop
		{`<shards count="1"/>`, 4, 1}, // explicit single
		{`<shards count="4"/>`, 4, 4}, // the count as configured
		{`<shards count="8"/>`, 3, 3}, // clamped to clients
	}
	for _, c := range cases {
		cfg := shardCfg(t, 1, 1, c.shardsXML)
		if got := effectiveShards(cfg, c.clients); got != c.want {
			t.Errorf("effectiveShards(%q, %d clients) = %d, want %d", c.shardsXML, c.clients, got, c.want)
		}
	}
}

// The tentpole invariant: sharding the event loop may only change *when*
// work overlaps, never output bytes. Every shard count x persist-worker
// count must leave a DSF directory byte-identical to the pre-sharding classic
// loop.
func TestShardedOutputByteIdentical(t *testing.T) {
	const iters = 10
	run := func(workers int, shardsXML string) map[string][]byte {
		dir := t.TempDir()
		backend, err := store.NewFileStore(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		pers := &DSFPersister{Backend: backend}
		cfg := shardCfg(t, workers, 2, shardsXML)
		// A non-batch-aware scheduler forces one-iteration batches so the
		// async pipeline's object names are deterministic (see the golden
		// test over the pipeline's sizes).
		runNode(t, cfg, Options{Persister: pers, Scheduler: perIterScheduler{}}, iters)
		return readDir(t, dir)
	}

	for _, workers := range []int{0, 4} {
		ref := run(workers, "")
		if len(ref) != iters {
			t.Fatalf("workers=%d: classic loop produced %d objects, want %d", workers, len(ref), iters)
		}
		for _, shardsXML := range []string{
			`<shards count="1"/>`,
			`<shards count="2"/>`,
			`<shards count="4"/>`,
		} {
			variant := run(workers, shardsXML)
			if len(variant) != len(ref) {
				t.Errorf("workers=%d %s: %d objects, want %d", workers, shardsXML, len(variant), len(ref))
				continue
			}
			for obj, want := range ref {
				got, ok := variant[obj]
				if !ok {
					t.Errorf("workers=%d %s: object %s missing", workers, shardsXML, obj)
					continue
				}
				if string(got) != string(want) {
					t.Errorf("workers=%d %s: object %s differs from the classic loop", workers, shardsXML, obj)
				}
			}
		}
		// Every run above goes through recycled catalog maps, entries and
		// chunk batches from its second iteration on. The first three
		// objects — first, second and third use — must be what a persister
		// used once writes for the same chunks.
		for it := int64(0); it < 3; it++ {
			obj := fmt.Sprintf("node0000_srv0000_it%06d.dsf", it)
			r, err := dsf.OpenReaderAt(bytes.NewReader(ref[obj]), int64(len(ref[obj])))
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, obj, err)
			}
			var entries []*metadata.Entry
			for i, m := range r.Chunks() {
				data, err := r.ReadChunk(i)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, &metadata.Entry{
					Key: metadata.Key{Name: m.Name, Iteration: m.Iteration, Source: m.Source}, Layout: m.Layout, Inline: data})
			}
			dir := t.TempDir()
			if err := (&DSFPersister{Dir: dir}).Persist(it, entries); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readDir(t, dir)[obj], ref[obj]) {
				t.Errorf("workers=%d: %s (use %d of the recycled state) differs from a single-use persister's", workers, obj, it+1)
			}
		}
	}
}

// slowFailPersister persists into memory with an injected per-iteration
// delay and deterministic failures — backlog plus faults, the combination
// the shard loops must survive.
type slowFailPersister struct {
	mem      MemPersister
	delay    time.Duration
	boom     error
	failures atomic.Int64
}

func (p *slowFailPersister) Persist(it int64, entries []*metadata.Entry) error {
	time.Sleep(p.delay)
	if it%7 == 3 {
		p.failures.Add(1)
		return p.boom
	}
	return p.mem.Persist(it, entries)
}

// Three shard loops racing injected persist failures, under -race in CI: a
// slow failing synchronous persister blocks whichever loop won the flush
// ticket while its clients keep pushing and its siblings run on, and every
// client event must still be handled exactly once, Run must return the error,
// and all surviving iterations must be complete in the store.
func TestShardedLoopsSurvivePersistFailures(t *testing.T) {
	boom := errors.New("injected persist failure")
	pers := &slowFailPersister{delay: 2 * time.Millisecond, boom: boom}
	// Synchronous baseline (workers=0): the flush runs inside the shard
	// loop that won the ticket, so a slow persist reliably backs up that
	// shard's queue.
	cfg := shardCfg(t, 0, 1, `<shards count="4"/>`)
	const iters = 40

	var srv *Server
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			defer cli.Finalize()
			for it := int64(0); it < iters; it++ {
				for _, name := range []string{"a", "b"} {
					if err := cli.WriteFloat32s(name, it, fieldData(cli.Source())); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
			return
		}
		srv = dep.Server
		if err := dep.Server.Run(); !errors.Is(err, boom) {
			t.Errorf("Run returned %v, want the injected persist failure", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := srv.ShardCount(); got != 3 {
		t.Fatalf("ShardCount = %d, want 3 (count 4 clamped to 3 clients)", got)
	}
	ps := srv.PipelineStats()
	var events int64
	for _, sh := range ps.Shards {
		events += sh.Events
	}
	// 3 clients x (2 writes + 1 end) x iters + 3 exits: every event handled
	// exactly once.
	if want := int64(3*(2+1))*iters + 3; events != want {
		t.Fatalf("shards handled %d events, want %d", events, want)
	}
	if pers.failures.Load() == 0 {
		t.Fatal("no persist failure ever injected")
	}
	// Every iteration that survived its persist is complete: both variables
	// from all 3 clients (a flush that ran ahead of a sibling loop's writes
	// would break this).
	for it := int64(0); it < iters; it++ {
		if it%7 == 3 {
			continue
		}
		for _, name := range []string{"a", "b"} {
			for src := 0; src < 3; src++ {
				if _, ok := pers.mem.Get(metadata.Key{Name: name, Iteration: it, Source: src}); !ok {
					t.Fatalf("iteration %d missing %s from client %d", it, name, src)
				}
			}
		}
	}
}

// Idle is free: a parked shard loop is resumed once per unit of work — a
// client's EndIteration, its exit, the final Close — never per write and
// never by the clock. With four one-client shards each loop may leave a park
// about once per iteration however many writes the iteration holds and
// however long the run takes.
func TestShardIdleIsFree(t *testing.T) {
	const (
		iters  = 20
		writes = 16
		pause  = 5 * time.Millisecond
		slack  = 8 // the exit and the close
	)
	cfg := shardCfg(t, 1, 4, `<shards count="4"/>`)
	var srv *Server
	err := mpi.Run(5, 5, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: &MemPersister{}})
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
		defer cli.Finalize()
		for it := int64(0); it < iters; it++ {
			for w := 0; w < writes; w++ {
				// Rewriting a variable within an iteration is an overwrite:
				// one more event, one more catalogue insert, same output.
				if err := cli.WriteFloat32s([]string{"a", "b"}[w%2], it, fieldData(cli.Source())); err != nil {
					t.Error(err)
					return
				}
			}
			if err := cli.EndIteration(it); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(pause)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := srv.PipelineStats()
	if len(ps.Shards) != 4 {
		t.Fatalf("%d shards, want 4 loops", len(ps.Shards))
	}
	var events int64
	for i, sh := range ps.Shards {
		events += sh.Events
		// A timed poll would read ≥ iters·pause/1ms = 100 here, a wake per
		// write iters·(writes+1) = 340.
		if sh.Wakeups > iters+slack {
			t.Errorf("shard %d left a park %d times for %d iterations of %d writes", i, sh.Wakeups, iters, writes)
		}
		if sh.Wakeups < iters/2 {
			t.Errorf("shard %d: Wakeups = %d, the counter does not count", i, sh.Wakeups)
		}
	}
	if want := int64(4 * (iters*(writes+1) + 1)); events != want {
		t.Errorf("shards handled %d events, want %d", events, want)
	}
}

// Last write wins, by FIFO: a client's writes reach one loop in push order, so
// rewriting one tuple within an iteration leaves the last write's bytes in
// what is persisted, on every shard of a 4-shard server.
func TestShardedOverwriteLastWriteWins(t *testing.T) {
	const iters, rewrites = 20, 6
	pers := &MemPersister{}
	cfg := shardCfg(t, 1, 2, `<shards count="4"/>`)
	err := mpi.Run(5, 5, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			if got := dep.Server.ShardCount(); got != 4 {
				t.Errorf("ShardCount = %d, want 4", got)
			}
			if err := dep.Server.Run(); err != nil {
				t.Error(err)
			}
			return
		}
		cli := dep.Client
		defer cli.Finalize()
		for it := 0; it < iters; it++ {
			for v := 1; v <= rewrites; v++ {
				if err := cli.WriteFloat32s("a", int64(it), fieldData(cli.Source()*100+it*10+v)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := cli.EndIteration(int64(it)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 4; src++ {
		for it := 0; it < iters; it++ {
			got, ok := pers.Get(metadata.Key{Name: "a", Iteration: int64(it), Source: src})
			if want := mpi.Float32sToBytes(fieldData(src*100 + it*10 + rewrites)); !ok || string(got) != string(want) {
				t.Fatalf("client %d iteration %d: persisted bytes are not the last write's", src, it)
			}
		}
	}
}

// An overwrite frees the older block only when it is applied, and writes sit
// unapplied on a parked loop: a client that rewrites one variable into a
// segment with room for two copies must get its loop to apply them before it
// blocks for space, or it waits for a release only its own queue can produce.
func TestShardOverwriteUnderFullSegment(t *testing.T) {
	cfg, err := config.ParseString(`
<simulation>
  <buffer size="600" cores="1"/>
  <layout name="l" type="real" dimensions="16,4"/>
  <variable name="a" layout="l"/>
</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	pers := &MemPersister{}
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, 2, func(comm *mpi.Comm) {
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
			defer cli.Finalize()
			for v := 1; v <= 5; v++ {
				if err := cli.WriteFloat32s("a", 0, fieldData(v)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := cli.EndIteration(0); err != nil {
				t.Error(err)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("client deadlocked waiting for space its own queued overwrite holds")
	}
	got, ok := pers.Get(metadata.Key{Name: "a", Iteration: 0, Source: 0})
	if want := mpi.Float32sToBytes(fieldData(5)); !ok || string(got) != string(want) {
		t.Fatal("the last overwrite is not what was persisted")
	}
}

// Span honesty: with tracing on, an iteration's write span runs from its
// first write being made to the flush — not from the moment the loop, resumed
// by EndIteration, got round to the queued notification. And the pipeline
// records the iteration's queue, persist and ack spans whether a writer made
// it durable (workers=1) or the event loop did, inline (workers=0).
func TestShardWriteSpanOpensAtFirstPush(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testWriteSpan(t, workers) })
	}
}

func testWriteSpan(t *testing.T, workers int) {
	const gap = 30 * time.Millisecond
	plane := obs.NewPlane(0)
	cfg := shardCfg(t, workers, 2, `<shards count="2"/>`)
	begin := time.Now()
	err := mpi.Run(3, 3, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: &MemPersister{}, Obs: plane})
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
		defer cli.Finalize()
		if err := cli.WriteFloat32s("a", 0, fieldData(1)); err != nil {
			t.Error(err)
		}
		time.Sleep(gap) // the rest of the write phase
		if err := cli.WriteFloat32s("b", 0, fieldData(2)); err != nil {
			t.Error(err)
		}
		if err := cli.EndIteration(0); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[obs.Stage]int{}
	for _, sp := range plane.Tracer().Snapshot() {
		spans[sp.Stage]++
		if sp.Stage != obs.StageWrite {
			continue
		}
		if d := time.Duration(sp.Dur); d < gap {
			t.Errorf("write span lasts %v, the write phase lasted at least %v", d, gap)
		}
		if sp.Start < begin.UnixNano() || sp.Bytes != 2*2*256 {
			t.Errorf("write span starts %v before the run, carries %d bytes", time.Duration(begin.UnixNano()-sp.Start), sp.Bytes)
		}
	}
	for _, stage := range []obs.Stage{obs.StageWrite, obs.StageQueue, obs.StagePersist, obs.StageAck} {
		if spans[stage] != 1 {
			t.Errorf("%d %s spans, want 1 for the one iteration", spans[stage], stage)
		}
	}
}
