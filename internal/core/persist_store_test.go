package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// fileBackend opens a file backend over dir, closed when the test ends.
func fileBackend(t *testing.T, dir string) store.Backend {
	t.Helper()
	b, err := store.NewFileStore(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// objectNames lists the objects committed to b.
func objectNames(t *testing.T, b store.Backend) []string {
	t.Helper()
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, o := range objs {
		names = append(names, o.Name)
	}
	return names
}

// The tentpole's end-to-end claim: the same DSFPersister batch, streamed
// through the file backend and the content-addressed object store, restores
// byte-identically — the backend is a pure transport under the DSF format.
func TestDSFPersisterBackendsByteIdentical(t *testing.T) {
	fileB, err := store.NewFileStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	objB, err := store.NewObjStore(t.TempDir(), store.Options{PartSize: 4096, PutWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := batchEntries(4, 3)
	var streams [][]byte
	for _, b := range []store.Backend{fileB, objB} {
		p := &DSFPersister{Backend: b, Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
		if err := p.PersistBatch(batch); err != nil {
			t.Fatal(err)
		}
		files := objectNames(t, b)
		if len(files) != 1 {
			t.Fatalf("files = %v", files)
		}
		or, err := b.Open(files[0])
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, or.Size())
		if _, err := or.ReadAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, raw)
		r, err := dsf.OpenReaderAt(or, or.Size())
		if err != nil {
			t.Fatal(err)
		}
		if got := len(r.Chunks()); got != 12 {
			t.Errorf("chunks = %d, want 12", got)
		}
		if err := r.Verify(); err != nil {
			t.Error(err)
		}
		r.Close()
		or.Close()
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("DSF streams differ between backends")
	}

	// The object store's metrics surface through the persister.
	p := &DSFPersister{Backend: objB}
	st := p.StoreStats()
	if st.Scheme != "obj" || st.Commits != 1 || st.Puts == 0 {
		t.Errorf("StoreStats = %+v", st)
	}
}

// The lifecycle tracer rides the persist hot path (encode and persist spans
// per call): attaching it may add at most 10% to the path's allocations.
// The serial encoder's buffers and deflate state come from sync.Pools, so
// the count means nothing under the race detector.
func TestTracingPersistAllocOverheadBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	entries := batchEntries(1, 8)[0].Entries
	allocs := func(tr *obs.Tracer) float64 {
		p := &DSFPersister{Backend: fileBackend(t, t.TempDir()), Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
		p.SetTracer(tr)
		it := int64(0)
		return testing.AllocsPerRun(50, func() {
			if err := p.Persist(it%8, entries); err != nil {
				t.Fatal(err)
			}
			it++
		})
	}
	off, on := allocs(nil), allocs(obs.NewTracer(1<<12))
	t.Logf("persist allocs/op: %.0f untraced, %.0f traced", off, on)
	if on > 1.10*off {
		t.Errorf("tracing-on persist allocates %.0f/op, %.2fx the untraced %.0f (bound 1.10x)", on, on/off, off)
	}
}

// What one persist call allocates does not depend on how many chunks the
// iteration holds, with or without positions in the global domain: the
// chunk batch is recycled, the TOC records and their global coordinates
// reuse the previous object's, equal layouts share one descriptor and the
// TOC is appended into the pooled write buffer.
func TestPersistAllocsIndependentOfChunkCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	for _, global := range []bool{false, true} {
		few, many := persistAllocs(t, 8, global), persistAllocs(t, 64, global)
		t.Logf("global blocks %v: persist allocs/op: %.0f for 8 chunks, %.0f for 64", global, few, many)
		if many > few+1 {
			t.Errorf("global blocks %v: persisting 64 chunks allocates %.0f/op, 8 chunks %.0f: the count grows with the chunks",
				global, many, few)
		}
	}
}

// persistAllocs is what one warm DSFPersister.Persist of an iteration of
// the given chunk count allocates.
func persistAllocs(t *testing.T, chunks int, global bool) float64 {
	entries := batchEntries(1, chunks)[0].Entries
	if global {
		for i, e := range entries {
			e.Global = layout.Block{Start: []int64{int64(i) * e.Layout.Elems()}, Count: []int64{e.Layout.Elems()}}
		}
	}
	p := &DSFPersister{Backend: fileBackend(t, t.TempDir())}
	it := int64(0)
	persist := func() {
		if err := p.Persist(it%8, entries); err != nil {
			t.Fatal(err)
		}
		it++
	}
	persist()
	persist()
	return testing.AllocsPerRun(50, persist)
}

// An injected commit failure must surface as a persist error and leave no
// visible object — the pipeline's failure accounting sees exactly what a
// crashed storage service would produce.
func TestDSFPersisterObjStoreCommitFailure(t *testing.T) {
	objB, err := store.NewObjStore(t.TempDir(), store.Options{
		PartSize: 2048,
		Fault:    store.FailNth(store.OpCommit, 1, fmt.Errorf("storage service down")),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &DSFPersister{Backend: objB, Codec: dsf.None}
	if err := p.PersistBatch(batchEntries(2, 2)); err == nil {
		t.Fatal("persist must fail when the manifest commit fails")
	}
	if objs, _ := objB.Objects(); len(objs) != 0 {
		t.Errorf("failed persist left visible objects: %+v", objs)
	}
	// The retry (fault consumed) succeeds and dedupes the parts that were
	// already uploaded before the failed commit.
	if err := p.PersistBatch(batchEntries(2, 2)); err != nil {
		t.Fatal(err)
	}
	st := p.StoreStats()
	if st.DedupeHits == 0 {
		t.Errorf("retry should dedupe pre-uploaded parts: %+v", st)
	}
}

// The full deployment path: config names an obj:// backend, servers open it
// themselves, clients write through shared memory, and the run's
// PipelineStats carries the store metrics. Restored data must match what a
// plain-directory run produces.
func TestDeployWithObjBackend(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(t, "mutex", 1)
	cfg.PersistBackend = "obj://" + dir
	cfg.StorePartSize = 4096

	var mu sync.Mutex
	var stats []PipelineStats
	err := mpiRunPersistDefault(t, cfg, func(s *Server) {
		mu.Lock()
		stats = append(stats, s.PipelineStats())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both dedicated cores committed one object each into the shared root.
	b, err := store.Open("obj://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objects = %+v, want 2 (one per dedicated core)", objs)
	}
	for _, o := range objs {
		or, err := b.Open(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dsf.OpenReaderAt(or, or.Size())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("object %s: %v", o.Name, err)
		}
		if len(r.Chunks()) == 0 {
			t.Errorf("object %s is empty", o.Name)
		}
		r.Close()
		or.Close()
	}

	if len(stats) != 2 {
		t.Fatalf("pipeline stats from %d servers, want 2", len(stats))
	}
	for _, ps := range stats {
		if ps.Store.Scheme != "obj" {
			t.Errorf("PipelineStats.Store.Scheme = %q, want obj", ps.Store.Scheme)
		}
		if ps.Store.Commits != 1 || ps.Store.Puts == 0 {
			t.Errorf("PipelineStats.Store = %+v", ps.Store)
		}
	}
}

// Deploy must reject configurations naming unknown backend schemes instead
// of silently falling back to the file layout.
func TestDeployRejectsUnknownBackendScheme(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	cfg.PersistBackend = "hdf5://nowhere"
	err := mpiRunPersistDefault(t, cfg, nil)
	if err == nil {
		t.Fatal("deploy with an unknown backend scheme should fail")
	}
}

// mpiRunPersistDefault deploys two nodes with default (server-created)
// persisters; onServer runs on each dedicated core after its Run completes.
func mpiRunPersistDefault(t *testing.T, cfg *config.Config, onServer func(*Server)) error {
	t.Helper()
	var mu sync.Mutex
	var firstErr error
	runErr := mpi.Run(8, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{})
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		if dep.IsClient() {
			_ = dep.Client.Write("temp", 0, mpi.Float32sToBytes(fieldData(comm.Rank())))
			_ = dep.Client.EndIteration(0)
			_ = dep.Client.Finalize()
			return
		}
		if err := dep.Server.Run(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		if onServer != nil {
			onServer(dep.Server)
		}
	})
	if runErr != nil {
		return runErr
	}
	return firstErr
}

// Concurrent PersistBatch calls each commit their object, race-detector
// cleanly: 4 writers × 8 batches leave 32 distinct objects.
func TestDSFPersisterRecordsConcurrentPersists(t *testing.T) {
	p := &DSFPersister{Backend: fileBackend(t, t.TempDir()), Codec: dsf.None}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				batch := batchEntries(1, 1)
				// Distinct iterations per goroutine so object names differ.
				it := int64(w*100 + i)
				batch[0].Iteration = it
				for _, e := range batch[0].Entries {
					e.Key.Iteration = it
				}
				if err := p.PersistBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	files := objectNames(t, p.Backend)
	if got := len(slices.Compact(slices.Sorted(slices.Values(files)))); got != 32 {
		t.Fatalf("distinct files = %d, want 32 (%d listed)", got, len(files))
	}
}

// A raw object goes from the entries' bytes to the object store without a
// second copy: its chunks are hashed and written where they lie, so the
// store allocates no part-sized buffer for them and holds none once the
// object is committed. The live heap grows by less than one part, where a
// store copying into recycled part buffers kept several alive.
func TestPinnedRawObjectLeavesNoPartBuffer(t *testing.T) {
	const part = 1 << 20
	b, err := store.NewObjStore(t.TempDir(), store.Options{PartSize: part})
	if err != nil {
		t.Fatal(err)
	}
	var entries []*metadata.Entry
	for v := range 8 {
		data := make([]byte, part)
		data[0] = byte(v)
		entries = append(entries, spillEntry(fmt.Sprintf("v%d", v), 0, 0, data))
	}
	p := &DSFPersister{Backend: b}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Persist(0, entries); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&mid)
	if err := p.Persist(1, entries); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	runtime.KeepAlive(entries)
	if n := after.TotalAlloc - mid.TotalAlloc; n >= part {
		t.Errorf("persisting 8 MiB of raw chunks allocates %d bytes, want less than one part (%d)", n, part)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= part {
		t.Errorf("the live heap grew by %d bytes over two raw objects, want less than one part (%d)", grew, part)
	}
	or, err := b.Open("node0000_srv0000_it000001.dsf")
	if err != nil {
		t.Fatal(err)
	}
	r, err := dsf.OpenReaderAt(or, or.Size())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil || r.NumChunks() != len(entries) {
		t.Errorf("object holds %d chunks (%v), want %d", r.NumChunks(), err, len(entries))
	}
}
