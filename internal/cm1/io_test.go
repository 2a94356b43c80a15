package cm1

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

func parseConfig(xml string) (*config.Config, error) { return config.ParseString(xml) }

func smallParams(px, py int) Params {
	return Params{GlobalNX: 8 * px, GlobalNY: 8 * py, NZ: 4, PX: px, PY: py,
		DT: 0.05, Kappa: 0.12, WorkFactor: 1}
}

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

func TestFPPBackendWritesFiles(t *testing.T) {
	dir := t.TempDir()
	out := fileBackend(t, dir)
	err := mpi.Run(4, 4, func(c *mpi.Comm) {
		s, err := New(c, smallParams(2, 2))
		if err != nil {
			t.Error(err)
			return
		}
		b := NewFPPBackend(out, dsf.None, c.Rank())
		rep, err := Run(s, b, 4, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rep.WriteSeconds) != 2 {
			t.Errorf("write phases = %d, want 2", len(rep.WriteSeconds))
		}
		_ = b.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 ranks × 2 iterations = 8 files — the paper's metadata-storm shape.
	files, _ := filepath.Glob(filepath.Join(dir, "rank*.dsf"))
	if len(files) != 8 {
		t.Fatalf("files on disk = %d, want 8", len(files))
	}
	r, err := dsf.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Chunks()) != len(VariableNames) {
		t.Errorf("chunks = %d, want %d", len(r.Chunks()), len(VariableNames))
	}
	if err := r.Verify(); err != nil {
		t.Error(err)
	}
}

func TestCollectiveBackendWritesSharedFiles(t *testing.T) {
	dir := t.TempDir()
	out := fileBackend(t, dir)
	err := mpi.Run(8, 4, func(c *mpi.Comm) { // 2 nodes × 4 cores
		s, err := New(c, smallParams(4, 2))
		if err != nil {
			t.Error(err)
			return
		}
		b := NewCollectiveBackend(out, c)
		if _, err := Run(s, b, 2, 2); err != nil {
			t.Error(err)
		}
		_ = b.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// One shared file per node aggregator per iteration: 2 nodes × 1 iter.
	files, _ := filepath.Glob(filepath.Join(dir, "shared_*.dsf"))
	if len(files) != 2 {
		t.Fatalf("files = %v", files)
	}
	// Together the parts must hold all 8 ranks × 5 variables.
	total := 0
	for _, f := range files {
		r, err := dsf.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		total += len(r.Chunks())
		if err := r.Verify(); err != nil {
			t.Error(err)
		}
		r.Close()
	}
	if total != 8*len(VariableNames) {
		t.Errorf("total chunks = %d, want %d", total, 8*len(VariableNames))
	}
}

func TestDamarisBackendEndToEnd(t *testing.T) {
	p := smallParams(3, 1) // 3 compute ranks
	cfgXML := ConfigXML(p, 8<<20, "mutex", 1)
	cfg, err := config.ParseString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	mem := &core.MemPersister{}
	err = mpi.Run(4, 4, func(c *mpi.Comm) {
		dep, err := core.Deploy(c, cfg, nil, core.Options{Persister: mem})
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
		// Clients form the compute communicator (3 ranks, 3x1 grid).
		compute := dep.ClientComm
		s, err := New(compute, p)
		if err != nil {
			t.Error(err)
			return
		}
		b := NewDamarisBackend(dep.Client)
		rep, err := Run(s, b, 4, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rep.WriteSeconds) != 2 {
			t.Errorf("phases = %d", len(rep.WriteSeconds))
		}
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 clients × 5 variables × 2 iterations, plus the cm1_stats action's
	// entry per variable and iteration, keyed by the dedicated core (rank 3).
	if mem.Len() != 3*5*2+5*2 {
		t.Errorf("persisted datasets = %d, want 40", mem.Len())
	}
	for it := range int64(2) {
		for _, name := range VariableNames {
			mn, mx, sum, n := math.Inf(1), math.Inf(-1), 0.0, 0
			for src := 0; src < 3; src++ {
				b, ok := mem.Get(metadata.Key{Name: name, Iteration: it, Source: src})
				if !ok {
					t.Fatalf("%s it=%d src=%d missing", name, it, src)
				}
				for _, x := range mpi.BytesToFloat32s(b) {
					mn, mx, sum, n = min(mn, float64(x)), max(mx, float64(x)), sum+float64(x), n+1
				}
			}
			b, ok := mem.Get(metadata.Key{Name: "stats:" + name, Iteration: it, Source: 3})
			if !ok {
				t.Fatalf("stats:%s it=%d missing", name, it)
			}
			if got, want := mpi.BytesToFloat64s(b), []float64{mn, mx, sum / float64(n)}; !slices.Equal(got, want) {
				t.Errorf("stats:%s it=%d = %v, want the node's min/max/mean %v", name, it, got, want)
			}
		}
	}
}

func TestDamarisVsFPPSameData(t *testing.T) {
	// What Damaris persists must equal what FPP writes: each chunk's bytes
	// and its metadata, the global block Alloc carried to Commit included.
	dirDam, dirFPP := t.TempDir(), t.TempDir()
	p := smallParams(2, 1)
	cfg, err := config.ParseString(ConfigXML(p, 8<<20, "mutex", 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.PersistBackend = "file://" + dirDam
	outFPP := fileBackend(t, dirFPP)
	err = mpi.Run(3, 3, func(c *mpi.Comm) {
		dep, err := core.Deploy(c, cfg, nil, core.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			_ = dep.Server.Run()
			return
		}
		compute := dep.ClientComm
		s, err := New(compute, p)
		if err != nil {
			t.Error(err)
			return
		}
		damaris := NewDamarisBackend(dep.Client)
		fpp := NewFPPBackend(outFPP, dsf.None, compute.Rank())
		for step := 1; step <= 2; step++ {
			s.Step()
		}
		if err := damaris.WritePhase(s, 0); err != nil {
			t.Error(err)
		}
		if err := fpp.WritePhase(s, 0); err != nil {
			t.Error(err)
		}
		_ = damaris.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	type chunk struct {
		meta dsf.ChunkMeta
		data []byte
	}
	read := func(pattern string) map[string]chunk {
		files, _ := filepath.Glob(pattern)
		out := map[string]chunk{}
		for _, f := range files {
			r, err := dsf.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range r.Chunks() {
				b, err := r.ReadChunk(i)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/%d", m.Name, m.Source)] = chunk{m, b}
			}
			r.Close()
		}
		return out
	}
	fpp, dam := read(filepath.Join(dirFPP, "rank*.dsf")), read(filepath.Join(dirDam, "*.dsf"))
	if len(fpp) != 2*len(VariableNames) {
		t.Fatalf("fpp chunks = %d, want %d", len(fpp), 2*len(VariableNames))
	}
	for k, f := range fpp {
		d, ok := dam[k]
		if !ok {
			t.Fatalf("damaris missing %s", k)
		}
		if !reflect.DeepEqual(d.meta, f.meta) {
			t.Errorf("%s: damaris chunk %+v, fpp chunk %+v", k, d.meta, f.meta)
		}
		if !bytes.Equal(d.data, f.data) {
			t.Errorf("%s: damaris and fpp bytes differ", k)
		}
	}
}

func TestNullBackend(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		s, _ := New(c, smallParams(1, 1))
		rep, err := Run(s, NullBackend{}, 3, 1)
		if err != nil {
			t.Error(err)
		}
		if len(rep.WriteSeconds) != 3 {
			t.Errorf("phases = %d", len(rep.WriteSeconds))
		}
		if rep.ComputeSeconds <= 0 {
			t.Error("compute time not recorded")
		}
		if (NullBackend{}).Name() != "no-io" {
			t.Error("name wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithoutOutput(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		s, _ := New(c, smallParams(1, 1))
		rep, err := Run(s, NullBackend{}, 5, 0) // outputEvery <= 0: no phases
		if err != nil {
			t.Error(err)
		}
		if len(rep.WriteSeconds) != 0 {
			t.Errorf("phases = %d, want 0", len(rep.WriteSeconds))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackendNames(t *testing.T) {
	if NewFPPBackend(nil, dsf.None, 0).Name() != "file-per-process" {
		t.Error("fpp name")
	}
	if (&DamarisBackend{}).Name() != "damaris" {
		t.Error("damaris name")
	}
	if (&CollectiveBackend{}).Name() != "collective" {
		t.Error("collective name")
	}
}

func TestFPPWriteFailurePropagates(t *testing.T) {
	// A backend that can no longer write: every operation after Close fails.
	out, err := store.NewFileStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, 1, func(c *mpi.Comm) {
		s, _ := New(c, smallParams(1, 1))
		b := NewFPPBackend(out, dsf.None, 0)
		if _, err := Run(s, b, 1, 1); err == nil {
			t.Error("expected error from a backend that cannot write")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The baselines commit through the backend as Damaris's persister does, so
// they inherit its "no torn object ever visible": the nth commit fails, the
// phase that made it returns an error wrapping the store's, its object never
// appears, and every other object opens through the store and verifies.
// The nth commit is one of the last phase's, so no rank waits in a halo
// exchange for one that stopped. The file-per-process ranks race to it, so
// which one fails is read back from the reports; the collective run is one
// node, whose one aggregator commits phase after phase.
func TestBaselineCommitFailureLeavesNoTornObject(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		backend                     string
		ranks, phases, nth, objects int // objects: commits the run attempts
	}{
		{"fpp", 2, 2, 3, 4},
		{"collective", 3, 2, 2, 2},
	} {
		t.Run(c.backend, func(t *testing.T) {
			dir := t.TempDir()
			out, err := store.NewFileStore(dir, store.Options{Fault: store.FailNth(store.OpCommit, c.nth, boom)})
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			var mu sync.Mutex
			phasesDone := map[int]int{} // rank -> write phases that returned
			var failures []error
			failedRank := -1
			err = mpi.Run(c.ranks, c.ranks, func(comm *mpi.Comm) {
				s, err := New(comm, smallParams(c.ranks, 1))
				if err != nil {
					t.Error(err)
					return
				}
				var b Backend = NewFPPBackend(out, dsf.None, comm.Rank())
				if c.backend == "collective" {
					b = NewCollectiveBackend(out, comm)
				}
				rep, err := Run(s, b, c.phases, 1)
				mu.Lock()
				defer mu.Unlock()
				phasesDone[comm.Rank()] = len(rep.WriteSeconds)
				if err != nil {
					failures, failedRank = append(failures, err), comm.Rank()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) != 1 || !errors.Is(failures[0], boom) {
				t.Fatalf("phase errors %v, want one wrapping %v", failures, boom)
			}
			// The objects each rank's completed phases committed; the
			// collective ones are the aggregator's, rank 0's.
			name := func(rank, it int) string {
				if c.backend == "fpp" {
					return fmt.Sprintf("rank%05d_it%06d.dsf", rank, it)
				}
				return fmt.Sprintf("shared_it%06d_part%04d.dsf", it, rank)
			}
			var want []string
			for rank := 0; rank < c.ranks; rank++ {
				for it := 0; it < phasesDone[rank] && (c.backend == "fpp" || rank == 0); it++ {
					want = append(want, name(rank, it))
				}
			}
			if len(want) != c.objects-1 {
				t.Fatalf("%d objects committed, want every phase's but the failing one: %v", len(want), phasesDone)
			}
			torn := name(failedRank, phasesDone[failedRank])
			objs, err := out.Objects()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, o := range objs {
				got = append(got, o.Name)
				or, err := out.Open(o.Name)
				if err != nil {
					t.Fatal(err)
				}
				r, err := dsf.OpenReaderAt(or, or.Size())
				if err != nil {
					t.Fatalf("%s: %v", o.Name, err)
				}
				if err := r.Verify(); err != nil {
					t.Errorf("%s: %v", o.Name, err)
				}
				or.Close()
			}
			slices.Sort(want)
			if !slices.Equal(got, want) || slices.Contains(got, torn) {
				t.Errorf("visible objects %v, want %v (not %s)", got, want, torn)
			}
			// Nor is the torn object in the directory under any name a
			// reader would list: the failed commit's bytes stay in the
			// store's hidden temporary area, as a crash would leave them.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !strings.HasPrefix(e.Name(), ".") && !slices.Contains(want, e.Name()) {
					t.Errorf("%s is in the output directory", e.Name())
				}
			}
		})
	}
}

// The client half of the Damaris write phase — Alloc, FieldInto and Commit
// for every variable — allocates nothing whatever the grid: Segment.Reserve
// returns a value handle. The dedicated core starts only once the
// measurement is over (a write notification would not wake it anyway), so
// only the client's allocations count.
func TestDamarisWriteFieldsAllocs(t *testing.T) {
	const runs = 10
	var counts []float64
	for _, nz := range []int{20, 40} {
		p := DefaultParams(1, 1)
		p.NZ = nz
		phase := int64(4*p.LocalNX()*p.LocalNY()*p.NZ) * int64(len(VariableNames))
		cfg, err := config.ParseString(ConfigXML(p, (runs+2)*phase, "mutex", 1))
		if err != nil {
			t.Fatal(err)
		}
		measured := make(chan struct{})
		err = mpi.Run(2, 2, func(c *mpi.Comm) {
			dep, err := core.Deploy(c, cfg, nil, core.Options{Persister: &core.NullPersister{}})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				<-measured
				if err := dep.Server.Run(); err != nil {
					t.Error(err)
				}
				return
			}
			s, err := New(dep.ClientComm, p)
			if err != nil {
				t.Error(err)
				close(measured)
				return
			}
			b := NewDamarisBackend(dep.Client)
			counts = append(counts, testing.AllocsPerRun(runs, func() {
				if err := b.writeFields(s, 0); err != nil {
					t.Error(err)
				}
			}))
			close(measured)
			if err := dep.Client.EndIteration(0); err != nil {
				t.Error(err)
			}
			if err := b.Close(); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(counts) != 2 || counts[0] != 0 || counts[1] != 0 {
		t.Errorf("write phase allocates %v objects at nz=20 and nz=40, want 0 at both", counts)
	}
}
