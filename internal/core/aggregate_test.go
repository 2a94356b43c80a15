package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// runAggregated deploys 2 nodes x 4 cores with the given config and options, every
// client writing both variables for `iters` iterations, and returns the
// pipeline stats collected from each server.
func runAggregated(t *testing.T, cfg *config.Config, opts Options, iters int) []PipelineStats {
	t.Helper()
	var mu sync.Mutex
	var stats []PipelineStats
	var firstErr error
	err := mpi.Run(8, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, opts)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			for it := int64(0); it < int64(iters); it++ {
				if err := cli.WriteFloat32s("temp", it, fieldData(cli.Source())); err != nil {
					t.Error(err)
				}
				if err := cli.WriteFloat32s("wind", it, fieldData(-cli.Source())); err != nil {
					t.Error(err)
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
				}
			}
			if err := cli.Finalize(); err != nil {
				t.Error(err)
			}
			return
		}
		if err := dep.Server.Run(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		mu.Lock()
		stats = append(stats, dep.Server.PipelineStats())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return stats
}

// readDir returns name -> bytes for every visible file under dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// The tentpole's acceptance claim, tier 1: with aggregation enabled each
// node commits exactly one DSF object per flush epoch, merging both
// dedicated cores' contributions in deterministic order, byte-identical
// across pipeline worker counts (0 = synchronous baseline included).
func TestDeployAggregateCoreOneObjectPerNodePerEpoch(t *testing.T) {
	const iters = 3
	var ref map[string][]byte
	for _, workers := range []int{0, 1, 2} {
		dir := t.TempDir()
		cfg := testCfg(t, "mutex", 2)
		cfg.AggregateMode = "core"
		cfg.PersistWorkers = workers
		cfg.PersistQueueDepth = 4
		stats := runAggregated(t, cfg, Options{OutputDir: dir}, iters)

		files := readDir(t, dir)
		// 2 nodes x 3 epochs, one object each; no per-server objects.
		if len(files) != 2*iters {
			t.Fatalf("workers=%d: %d objects, want %d: %v", workers, len(files), 2*iters, names(files))
		}
		for nodeIdx := 0; nodeIdx < 2; nodeIdx++ {
			for it := 0; it < iters; it++ {
				name := fmt.Sprintf("node%04d_it%06d.dsf", nodeIdx, it)
				if _, ok := files[name]; !ok {
					t.Fatalf("workers=%d: missing merged object %s: %v", workers, name, names(files))
				}
			}
		}
		if ref == nil {
			ref = files
		} else {
			for name, b := range ref {
				if !bytes.Equal(files[name], b) {
					t.Errorf("workers=%d: %s differs from workers=0 output", workers, name)
				}
			}
		}
		if len(stats) != 4 {
			t.Fatalf("stats from %d servers, want 4", len(stats))
		}
		// Exactly one leader per node reports aggregation; contributions come
		// from both members.
		leaders := 0
		for _, ps := range stats {
			if ps.Aggregate.Members == 0 {
				continue
			}
			leaders++
			if ps.Aggregate.Members != 2 {
				t.Errorf("aggregate members = %d, want 2", ps.Aggregate.Members)
			}
			if ps.Aggregate.Epochs != iters {
				t.Errorf("aggregate epochs = %d, want %d", ps.Aggregate.Epochs, iters)
			}
			if ps.Aggregate.Contributions != 2*iters {
				t.Errorf("aggregate contributions = %d, want %d", ps.Aggregate.Contributions, 2*iters)
			}
		}
		if leaders != 2 {
			t.Errorf("aggregation reported by %d servers, want the 2 node leaders", leaders)
		}
	}

	// The merged objects restore: every chunk verifies, both servers' client
	// groups are present, and the contributing servers are recorded.
	dir := t.TempDir()
	cfg := testCfg(t, "mutex", 2)
	cfg.AggregateMode = "core"
	runAggregated(t, cfg, Options{OutputDir: dir}, 1)
	for nodeIdx, wantServers := range map[int]string{0: "2,3", 1: "6,7"} {
		path := filepath.Join(dir, fmt.Sprintf("node%04d_it%06d.dsf", nodeIdx, 0))
		r, err := dsf.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Error(err)
		}
		attrs := r.Attributes()
		if attrs["servers"] != wantServers {
			t.Errorf("node %d servers attr = %q, want %q", nodeIdx, attrs["servers"], wantServers)
		}
		if attrs["aggregate"] != "core" {
			t.Errorf("node %d aggregate attr = %q, want core", nodeIdx, attrs["aggregate"])
		}
		// 1 client per dedicated core x 2 cores x 2 variables.
		if got := len(r.Chunks()); got != 4 {
			t.Errorf("node %d chunks = %d, want 4", nodeIdx, got)
		}
		r.Close()
	}
}

// Tier 1 over the content-addressed object store: the same one-object-per-
// node-per-epoch protocol, restorable through manifests.
func TestDeployAggregateCoreObjBackend(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(t, "mutex", 2)
	cfg.AggregateMode = "core"
	cfg.PersistBackend = "obj://" + dir
	cfg.StorePartSize = 4096
	const iters = 2
	// No Options.Persister: the leader resolves the default one, and its
	// commits of the merged objects must show up in the trace.
	plane := obs.NewPlane(0)
	runAggregated(t, cfg, Options{OutputDir: t.TempDir(), Obs: plane}, iters)
	commits := 0
	for _, sp := range plane.Tracer().Snapshot() {
		if sp.Stage == obs.StageCommit {
			commits++
		}
	}
	if commits != 2*iters {
		t.Errorf("%d commit spans, want %d (one per merged epoch)", commits, 2*iters)
	}

	b, err := store.Open("obj://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2*iters {
		t.Fatalf("objects = %+v, want %d (one per node per epoch)", objs, 2*iters)
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
			t.Errorf("%s: %v", o.Name, err)
		}
		if len(r.Chunks()) != 4 {
			t.Errorf("%s: chunks = %d, want 4", o.Name, len(r.Chunks()))
		}
		r.Close()
		or.Close()
	}
}

// Aggregation rejects persisters that cannot write merged epochs instead of
// silently falling back to per-core output — and a leader's setup failure
// reaches its sibling dedicated cores as an error too, rather than leaving
// them blocked in the handshake.
func TestDeployAggregateNeedsEpochWriter(t *testing.T) {
	cfg := testCfg(t, "mutex", 2)
	cfg.AggregateMode = "core"
	var errs []error
	var mu sync.Mutex
	err := mpi.Run(8, 4, func(comm *mpi.Comm) {
		_, err := Deploy(comm, cfg, nil, Options{Persister: &MemPersister{}})
		mu.Lock()
		if err != nil {
			errs = append(errs, err)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// All four dedicated cores (2 leaders + 2 siblings) must report the
	// failure; none may hang.
	if len(errs) != 4 {
		t.Fatalf("deploy errors = %d (%v), want 4", len(errs), errs)
	}
}

func names(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
