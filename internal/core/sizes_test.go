package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
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

// chunkKey names a chunk within an output tree.
type chunkKey struct {
	name      string
	iteration int64
	source    int
}

// storedChunk is a chunk's full metadata and decoded bytes.
type storedChunk struct {
	meta dsf.ChunkMeta
	data []byte
}

// readChunks decodes every chunk of the DSF objects in files (name → bytes),
// keyed by (variable, iteration, source). A key found twice fails the test.
func readChunks(t *testing.T, files map[string][]byte) map[chunkKey]storedChunk {
	t.Helper()
	out := make(map[chunkKey]storedChunk)
	for obj, b := range files {
		r, err := dsf.OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
		for i, m := range r.Chunks() {
			data, err := r.ReadChunk(i)
			if err != nil {
				t.Fatalf("%s: chunk %d: %v", obj, i, err)
			}
			k := chunkKey{m.Name, m.Iteration, m.Source}
			if _, dup := out[k]; dup {
				t.Errorf("%s: chunk %+v written twice", obj, k)
			}
			out[k] = storedChunk{m, data}
		}
	}
	return out
}

// sameChunks reports each chunk of want that got lacks or holds with other
// metadata or bytes, and each chunk got holds beyond want.
func sameChunks(t *testing.T, label string, got, want map[chunkKey]storedChunk) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: chunk %+v missing", label, k)
		case !reflect.DeepEqual(g.meta, w.meta):
			t.Errorf("%s: chunk %+v metadata %+v, want %+v", label, k, g.meta, w.meta)
		case !bytes.Equal(g.data, w.data):
			t.Errorf("%s: chunk %+v bytes differ", label, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra chunk %+v", label, k)
		}
	}
}

// sameFiles reports each object of want that got lacks or holds with other
// bytes, and a count mismatch.
func sameFiles(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d objects, want %d", label, len(got), len(want))
	}
	for obj, w := range want {
		if g, ok := got[obj]; !ok {
			t.Errorf("%s: object %s missing", label, obj)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s: object %s differs", label, obj)
		}
	}
}

// The determinism invariant: the pipeline's sizes may only change *when*
// work overlaps, never output bytes. Every static (workers, queue,
// encode_workers) — under different injected store latencies, i.e. different
// interleavings of writers and encoders — must leave a shuffle+gzip DSF
// tree holding the smallest configuration's chunks. A writer batches
// whatever is queued into one object, so where the queue holds more than one
// iteration the object names follow the interleaving and only the chunk set
// is compared; with a queue of one every object is too.
func TestControlDecisionSequencesByteIdentical(t *testing.T) {
	const iters = 12
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
		runNode(t, sizesCfg(t, workers, queue, encode), Options{Persister: pers}, iters)
		return readDir(t, dir)
	}

	ref := run(0, 1, 1, 0)
	if len(ref) != iters {
		t.Fatalf("w1 q1 e0 run produced %d objects, want one per iteration", len(ref))
	}
	refChunks := readChunks(t, ref)
	if want := iters * 3 * 2; len(refChunks) != want { // 3 clients, 2 variables
		t.Fatalf("w1 q1 e0 run holds %d chunks, want %d", len(refChunks), want)
	}
	batched := false
	for _, v := range []struct {
		name                   string
		lat                    time.Duration
		workers, queue, encode int
	}{
		{"w1 q1 e0/slow-store", 3 * time.Millisecond, 1, 1, 0},
		{"w1 q4 e1", 1 * time.Millisecond, 1, 4, 1},
		{"w2 q2 e2", 2 * time.Millisecond, 2, 2, 2},
		{"w3 q1 e4", 1 * time.Millisecond, 3, 1, 4},
		{"w4 q4 e0", 1 * time.Millisecond, 4, 4, 0},
		{"w4 q4 e2", 2 * time.Millisecond, 4, 4, 2},
		{"w1 q1 e3", 0, 1, 1, 3},
	} {
		files := run(v.lat, v.workers, v.queue, v.encode)
		sameChunks(t, v.name, readChunks(t, files), refChunks)
		if v.queue == 1 {
			sameFiles(t, v.name, files, ref)
		} else {
			t.Logf("%s: %d objects for %d iterations", v.name, len(files), iters)
			batched = batched || len(files) < iters
		}
	}
	// Without this the golden could quietly go back to one-iteration
	// batches, which no bench workload runs.
	if !batched {
		t.Error("no variant with a queue of more than one wrote fewer objects than iterations: batching went untested")
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
		cfg.PersistBackend = "file://" + dir
		_ = runAggregated(t, cfg, Options{}, 8)
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

// A dedicated core allocates the write phases its clients fill in steady
// state, one being written plus one per persist writer, not its whole share
// of <buffer size>: 64 MiB with four clients each writing two 256 KiB
// variables, one writer and queue depth 2 allocates two 2 MiB phases. A
// burst that writes window+1 phases before the first durable flush touches
// one lazy phase more, and still not the remainder past the flow window's
// bound. With a scratch store the window is what the buffer holds, so the
// segment is allocated whole.
func TestDeployCommittedBufferAlloc(t *testing.T) {
	const phase, mib = 4 * 2 * 256 << 10, 1 << 20
	for _, c := range []struct {
		name      string
		spill     bool
		iters     int64 // iterations each client writes, the first flush held until all are
		allocated int64 // the segment's bytes allocated at the end
	}{
		{"queue 2", false, 0, 2 * phase},
		{"queue 2 burst", false, 3, 3 * phase},
		{"spill", true, 0, 64 * mib},
	} {
		cfg, err := config.ParseString(`
<simulation>
  <buffer size="67108864" cores="1"/>
  <pipeline workers="1" queue="2"/>
  <layout name="l" type="real" dimensions="256,256"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
</simulation>`)
		if err != nil {
			t.Fatal(err)
		}
		if c.spill {
			cfg.SpillDir = t.TempDir()
		}
		held := heldPersister{make(chan struct{})}
		if c.iters == 0 {
			close(held.open)
		}
		var before, after runtime.MemStats
		var allocated int64
		runtime.ReadMemStats(&before)
		if err := mpi.Run(5, 5, func(comm *mpi.Comm) {
			dep, err := Deploy(comm, cfg, nil, Options{Persister: held})
			if err != nil {
				t.Error(err)
				return
			}
			if dep.IsClient() {
				for it := range c.iters {
					for _, v := range []string{"a", "b"} {
						if _, err := dep.Client.Alloc(v, it, layout.Block{}); err != nil {
							t.Error(err)
						}
						if err := dep.Client.Commit(v, it); err != nil {
							t.Error(err)
						}
					}
					if err := dep.Client.EndIteration(it); err != nil {
						t.Error(err)
					}
				}
				_ = dep.Client.Finalize()
				return
			}
			if c.iters > 0 {
				go func() { // the first flush waits until every client wrote every phase
					for i := 0; i < 10000 && dep.Server.seg.Reserves() < 4*2*c.iters; i++ {
						time.Sleep(time.Millisecond)
					}
					close(held.open)
				}()
			}
			if err := dep.Server.Run(); err != nil {
				t.Error(err)
			}
			allocated = dep.Server.seg.AllocatedBytes()
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if allocated != c.allocated {
			t.Errorf("%s: segment allocated %d bytes, want %d", c.name, allocated, c.allocated)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got < uint64(c.allocated) || got > uint64(c.allocated+mib) {
			t.Errorf("%s: deployment allocated %d bytes, want [%d, %d]", c.name, got, c.allocated, c.allocated+mib)
		}
	}
}

// heldPersister persists nothing, each call once open is closed.
type heldPersister struct{ open chan struct{} }

func (p heldPersister) Persist(int64, []*metadata.Entry) error {
	<-p.open
	return nil
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
	pers := &DSFPersister{Backend: fileBackend(t, t.TempDir())}
	var errs []error
	var mu sync.Mutex
	if err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		_, err := Deploy(comm, cfg, nil, Options{Persister: pers})
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
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
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
