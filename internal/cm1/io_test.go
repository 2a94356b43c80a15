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
	"testing"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

func parseConfig(xml string) (*config.Config, error) { return config.ParseString(xml) }

// defaults returns a configuration with every knob at its default.
func defaults(t *testing.T) *config.Config {
	t.Helper()
	cfg, err := parseConfig("<simulation/>")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

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

// runFileWorld runs a world of the named baseline strategy on 2 nodes of 4
// cores, 4 steps with an output every 2, into a file store over dir.
func runFileWorld(t *testing.T, strategy, dir string) WorldResult {
	t.Helper()
	res, err := RunWorld(WorldSpec{Strategy: strategy, Ranks: 8, CoresPerNode: 4, Steps: 4, OutputEvery: 2,
		Grid: smallParams, Config: defaults(t), Shared: fileBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// openVerified opens every DSF file matching pattern, verifies it and
// returns how many chunks they hold together.
func openVerified(t *testing.T, pattern string) (files, chunks int) {
	t.Helper()
	names, _ := filepath.Glob(pattern)
	for _, f := range names {
		r, err := dsf.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		chunks += len(r.Chunks())
		if err := r.Verify(); err != nil {
			t.Error(err)
		}
		r.Close()
	}
	return len(names), chunks
}

// Every rank writes one file per output phase: 8 ranks × 2 phases, the
// paper's metadata-storm shape, each file holding every variable.
func TestFPPBackendWritesFiles(t *testing.T) {
	dir := t.TempDir()
	for rank, ph := range runFileWorld(t, "fpp", dir).Phases {
		if len(ph) != 2 {
			t.Errorf("rank %d: write phases = %d, want 2", rank, len(ph))
		}
	}
	if files, chunks := openVerified(t, filepath.Join(dir, "rank*.dsf")); files != 16 || chunks != 16*len(VariableNames) {
		t.Errorf("%d files of %d chunks, want 16 of %d", files, chunks, 16*len(VariableNames))
	}
}

// One shared file per node aggregator per output phase, 2 nodes × 2
// phases, together holding all 8 ranks × 5 variables of each phase.
func TestCollectiveBackendWritesSharedFiles(t *testing.T) {
	dir := t.TempDir()
	runFileWorld(t, "collective", dir)
	if files, chunks := openVerified(t, filepath.Join(dir, "shared_*.dsf")); files != 4 || chunks != 2*8*len(VariableNames) {
		t.Errorf("%d files of %d chunks, want 4 of %d", files, chunks, 2*8*len(VariableNames))
	}
}

// chunk is one chunk a world persisted: its metadata and its bytes.
type chunk struct {
	meta dsf.ChunkMeta
	data []byte
}

// persisted runs a world of one node of ranks cores into a file store and
// returns every chunk it committed, by (name, iteration, source).
func persisted(t *testing.T, strategy string, ranks, steps, outputEvery int) map[metadata.Key]chunk {
	t.Helper()
	dir, cfg := t.TempDir(), defaults(t)
	cfg.BufferSize, cfg.PersistBackend = 8<<20, "file://"+dir
	if _, err := RunWorld(WorldSpec{Strategy: strategy, Ranks: ranks, CoresPerNode: ranks,
		Steps: steps, OutputEvery: outputEvery, Grid: smallParams, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.dsf"))
	out := map[metadata.Key]chunk{}
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
			out[metadata.Key{Name: m.Name, Iteration: m.Iteration, Source: m.Source}] = chunk{m, b}
		}
		r.Close()
	}
	return out
}

// Three clients and their dedicated core (rank 3) persist every variable of
// each output phase, and beside them the cm1_stats action's min/max/mean
// over the node's pieces, keyed by the dedicated core.
func TestDamarisBackendEndToEnd(t *testing.T) {
	got := persisted(t, "damaris", 4, 4, 2)
	if len(got) != 3*5*2+5*2 {
		t.Errorf("persisted datasets = %d, want 40", len(got))
	}
	for it := range int64(2) {
		for _, name := range VariableNames {
			mn, mx, sum, n := math.Inf(1), math.Inf(-1), 0.0, 0
			for src := 0; src < 3; src++ {
				c, ok := got[metadata.Key{Name: name, Iteration: it, Source: src}]
				if !ok {
					t.Fatalf("%s it=%d src=%d missing", name, it, src)
				}
				for _, x := range mpi.BytesToFloat32s(c.data) {
					mn, mx, sum, n = min(mn, float64(x)), max(mx, float64(x)), sum+float64(x), n+1
				}
			}
			c, ok := got[metadata.Key{Name: "stats:" + name, Iteration: it, Source: 3}]
			if !ok {
				t.Fatalf("stats:%s it=%d missing", name, it)
			}
			if got, want := mpi.BytesToFloat64s(c.data), []float64{mn, mx, sum / float64(n)}; !slices.Equal(got, want) {
				t.Errorf("stats:%s it=%d = %v, want the node's min/max/mean %v", name, it, got, want)
			}
		}
	}
}

// What Damaris persists must equal what FPP writes: each chunk's bytes and
// its metadata, the global block Alloc carried to Commit included. Both
// worlds compute on two ranks, Damaris's beside one dedicated core.
func TestDamarisVsFPPSameData(t *testing.T) {
	fpp, dam := persisted(t, "fpp", 2, 2, 2), persisted(t, "damaris", 3, 2, 2)
	if len(fpp) != 2*len(VariableNames) {
		t.Fatalf("fpp chunks = %d, want %d", len(fpp), 2*len(VariableNames))
	}
	for k, f := range fpp {
		d, ok := dam[k]
		if !ok {
			t.Fatalf("damaris missing %v", k)
		}
		if !reflect.DeepEqual(d.meta, f.meta) {
			t.Errorf("%v: damaris chunk %+v, fpp chunk %+v", k, d.meta, f.meta)
		}
		if !bytes.Equal(d.data, f.data) {
			t.Errorf("%v: damaris and fpp bytes differ", k)
		}
	}
}

// With no output cadence a run has no write phase.
func TestRunWithoutOutput(t *testing.T) {
	res, err := RunWorld(WorldSpec{Strategy: "fpp", Ranks: 1, CoresPerNode: 1, Steps: 5, Grid: smallParams,
		Config: defaults(t), Shared: fileBackend(t, t.TempDir())})
	if err != nil || len(res.Phases[0]) != 0 {
		t.Errorf("RunWorld = %v, %v; want no write phase", res.Phases, err)
	}
}

// A backend that can no longer write (every operation after Close fails)
// fails the rank's first write phase, and the world with it.
func TestFPPWriteFailurePropagates(t *testing.T) {
	out, err := store.NewFileStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = RunWorld(WorldSpec{Strategy: "fpp", Ranks: 1, CoresPerNode: 1, Steps: 1, OutputEvery: 1,
		Grid: smallParams, Config: defaults(t), Shared: out})
	if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 0: cm1: write phase 0: ") {
		t.Errorf("RunWorld = %v, want rank 0's write phase 0 failing", err)
	}
}

// The baselines commit through the backend as Damaris's persister does, so
// they inherit its "no torn object ever visible": the nth commit fails, the
// phase that made it returns an error wrapping the store's, its object never
// appears, and every other object opens through the store and verifies.
// The nth commit is one of the last phase's, so no rank waits in a halo
// exchange for one that stopped, and the world's abort reaches no rank. The
// file-per-process ranks race to it, so the failed rank is the one with a
// phase missing; the collective run is one node, whose one aggregator
// commits phase after phase.
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
			res, err := RunWorld(WorldSpec{Strategy: c.backend, Ranks: c.ranks, CoresPerNode: c.ranks,
				Steps: c.phases, OutputEvery: 1, Grid: smallParams, Config: defaults(t), Shared: out})
			if !errors.Is(err, boom) {
				t.Fatalf("RunWorld = %v, want an error wrapping %v", err, boom)
			}
			phasesDone, failedRank := map[int]int{}, -1 // rank -> write phases that returned
			for rank, ph := range res.Phases {
				if phasesDone[rank] = len(ph); len(ph) < c.phases {
					failedRank = rank
				}
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
