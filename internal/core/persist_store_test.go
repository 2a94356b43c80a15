package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

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
		files := p.Files()
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
// dsf.Writer's bufio comes from a sync.Pool, so the count means nothing
// under the race detector.
func TestTracingPersistAllocOverheadBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	entries := batchEntries(1, 8)[0].Entries
	allocs := func(tr *obs.Tracer) float64 {
		p := &DSFPersister{Dir: t.TempDir(), Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
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
// iteration holds: the chunk batch is recycled, the TOC records are reserved
// once, equal layouts share one descriptor and the TOC is encoded into the
// pooled write buffer. What is left grows with log2 of the TOC's size: every
// gob encoder doubles a buffer of its own up to the message it sends, three
// more steps for eight times the records.
func TestPersistAllocsIndependentOfChunkCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	allocs := func(chunks int) float64 {
		entries := batchEntries(1, chunks)[0].Entries
		p := &DSFPersister{Dir: t.TempDir()}
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
	few, many := allocs(8), allocs(64)
	t.Logf("persist allocs/op: %.0f for 8 chunks, %.0f for 64", few, many)
	if many > few+4 {
		t.Errorf("persisting 64 chunks allocates %.0f/op, 8 chunks %.0f: the count grows with the chunks", many, few)
	}
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
	if len(p.Files()) != 0 {
		t.Errorf("failed persist recorded files: %v", p.Files())
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
			_ = dep.Client.WriteFloat32s("temp", 0, fieldData(dep.Client.Source()))
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

// Files must be safe to read while writer goroutines are still appending —
// the accessor returns a copy, so concurrent Persist calls and Files reads
// race-detector-cleanly coexist.
func TestDSFPersisterFilesAccessorConcurrent(t *testing.T) {
	p := &DSFPersister{Dir: t.TempDir(), Codec: dsf.None}
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
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			files := p.Files()
			// Mutating the returned slice must never corrupt the persister.
			if len(files) > 0 {
				files[0] = "clobbered"
			}
		}
	}()
	wg.Wait()
	<-done
	files := p.Files()
	if len(files) != 32 {
		t.Fatalf("files = %d, want 32", len(files))
	}
	for _, f := range files {
		if f == "clobbered" {
			t.Fatal("caller mutation leaked into the persister's list")
		}
	}
}
