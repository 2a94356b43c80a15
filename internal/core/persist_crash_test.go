package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
)

// mpiRunPersist deploys two nodes (one dedicated core each) against a
// single shared persister: every client writes one iteration, both servers
// drain and persist it.
func mpiRunPersist(t *testing.T, pers Persister, cfg *config.Config) error {
	t.Helper()
	return mpi.Run(8, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			_ = dep.Client.Write("temp", 0, mpi.Float32sToBytes(fieldData(comm.Rank())))
			_ = dep.Client.EndIteration(0)
			_ = dep.Client.Finalize()
			return
		}
		if err := dep.Server.Run(); err != nil {
			t.Error(err)
		}
	})
}

// One DSFPersister shared by several dedicated cores (a sanctioned pattern
// — core_test and the examples do it) must survive encode_workers > 0: the
// server only auto-installs pools on persisters it creates itself, so a
// shared external persister keeps serial encoding instead of racing on pool
// installation or panicking when the first server to finish closes a pool
// its siblings still use.
func TestSharedPersisterWithEncodeWorkers(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	cfg.EncodeWorkers = 2
	dir := t.TempDir()
	shared := &DSFPersister{Backend: fileBackend(t, dir), Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
	err := mpiRunPersist(t, shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One object per node's dedicated core; both carry the shared
	// persister's one name, so the second commit replaces the first.
	if n := shared.StoreStats().Commits; n != 2 {
		t.Fatalf("commits = %d, want 2", n)
	}
	for _, f := range objectNames(t, shared.Backend) {
		r, err := dsf.Open(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Error(err)
		}
		r.Close()
	}
}

// batchEntries builds in-memory entries for iterations [0,iters) with
// `sources` chunks each.
func batchEntries(iters, sources int) []IterationBatch {
	lay := layout.MustNew(layout.Float32, 512)
	var batch []IterationBatch
	for it := 0; it < iters; it++ {
		ib := IterationBatch{Iteration: int64(it)}
		for src := 0; src < sources; src++ {
			data := make([]byte, lay.Bytes())
			for i := range data {
				data[i] = byte(it + src + i)
			}
			ib.Entries = append(ib.Entries, &metadata.Entry{
				Key:    metadata.Key{Name: "theta", Iteration: int64(it), Source: src},
				Layout: lay,
				Inline: data,
			})
		}
		batch = append(batch, ib)
	}
	return batch
}

// The ROADMAP's crash-consistency item: a persist writer killed mid-batch
// must leave a file dsf.Open rejects, and the reader must treat
// multi-iteration (batched) files exactly as strictly as single-iteration
// ones.
func TestBatchedPersistCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	pool := dsf.NewEncodePool(2)
	defer pool.Close()
	p := &DSFPersister{Backend: fileBackend(t, dir), Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
	p.SetEncodePool(pool)
	if err := p.PersistBatch(batchEntries(4, 3)); err != nil {
		t.Fatal(err)
	}
	files := objectNames(t, p.Backend)
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	files[0] = filepath.Join(dir, files[0])
	if !strings.Contains(files[0], "it000000-000003") {
		t.Errorf("batched file name %q should span the iteration range", files[0])
	}

	// Healthy multi-iteration file: fully readable.
	r, err := dsf.Open(files[0])
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

	// Kill the writer at assorted points mid-batch: every prefix of the
	// batched file must be detected as truncated, same as a
	// single-iteration file.
	full, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	crash := filepath.Join(dir, "crashed.dsf")
	for _, frac := range []int{4, 3, 2} {
		if err := os.WriteFile(crash, full[:len(full)/frac], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := dsf.Open(crash); err == nil {
			t.Errorf("mid-batch crash at 1/%d of the file opened without error", frac)
		}
	}
}
