package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/event"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
)

const testXML = `
<simulation>
  <buffer size="1048576" allocator="%s" cores="%d"/>
  <layout name="field" type="real" dimensions="16,4"/>
  <variable name="temp" layout="field" unit="K"/>
  <variable name="wind" layout="field" unit="m/s"/>
  <event name="do_stats" action="stats" scope="global"/>
  <layout name="counts" type="int" dimensions="64"/>
  <variable name="count" layout="counts"/>
  <event name="note" action="stats" scope="local"/>
</simulation>`

func testCfg(t *testing.T, allocator string, dedicated int) *config.Config {
	t.Helper()
	c, err := config.ParseString(fmt.Sprintf(testXML, allocator, dedicated))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fieldData(seed int) []float32 {
	xs := make([]float32, 64)
	for i := range xs {
		xs[i] = float32(seed*1000 + i)
	}
	return xs
}

// runPipeline runs a full deployment: every client writes both variables for
// `iters` iterations then finalizes; servers persist into a shared
// MemPersister. Returns the persister and per-role counters.
func runPipeline(t *testing.T, ranks, coresPerNode int, cfg *config.Config, iters int) (*MemPersister, int) {
	t.Helper()
	mem := &MemPersister{}
	var clientCount int
	var mu sync.Mutex
	err := mpi.Run(ranks, coresPerNode, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			mu.Lock()
			clientCount++
			mu.Unlock()
			cli := dep.Client
			for it := int64(0); it < int64(iters); it++ {
				if err := cli.Write("temp", it, mpi.Float32sToBytes(fieldData(comm.Rank()))); err != nil {
					t.Error(err)
				}
				if err := cli.Write("wind", it, mpi.Float32sToBytes(fieldData(-comm.Rank()))); err != nil {
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
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem, clientCount
}

func TestSingleNodePipeline(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	mem, clients := runPipeline(t, 12, 12, cfg, 3)
	if clients != 11 {
		t.Errorf("clients = %d, want 11", clients)
	}
	// 11 clients × 2 variables × 3 iterations.
	if mem.Len() != 11*2*3 {
		t.Errorf("persisted datasets = %d, want %d", mem.Len(), 66)
	}
	// Spot-check payload integrity.
	b, ok := mem.Get(metadata.Key{Name: "temp", Iteration: 2, Source: 3})
	if !ok {
		t.Fatal("dataset missing")
	}
	got := mpi.BytesToFloat32s(b)
	want := fieldData(3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMultiNodePipeline(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	mem, clients := runPipeline(t, 24, 12, cfg, 2)
	if clients != 22 {
		t.Errorf("clients = %d, want 22", clients)
	}
	if mem.Len() != 22*2*2 {
		t.Errorf("persisted = %d, want %d", mem.Len(), 88)
	}
}

func TestLockFreeAllocatorPipeline(t *testing.T) {
	cfg := testCfg(t, "lockfree", 1)
	mem, _ := runPipeline(t, 8, 8, cfg, 4)
	if mem.Len() != 7*2*4 {
		t.Errorf("persisted = %d, want %d", mem.Len(), 56)
	}
}

func TestMultipleDedicatedCores(t *testing.T) {
	// Paper §V-A: several dedicated cores per node with symmetric client
	// partitioning.
	cfg := testCfg(t, "mutex", 2)
	mem, clients := runPipeline(t, 8, 8, cfg, 2)
	if clients != 6 {
		t.Errorf("clients = %d, want 6", clients)
	}
	if mem.Len() != 6*2*2 {
		t.Errorf("persisted = %d, want %d", mem.Len(), 24)
	}
}

func TestZeroCopyAllocCommit(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	mem := &MemPersister{}
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			buf, err := cli.Alloc("temp", 0, layout.Block{})
			if err != nil {
				t.Error(err)
				return
			}
			copy(buf, mpi.Float32sToBytes(fieldData(9)))
			if err := cli.Commit("temp", 0); err != nil {
				t.Error(err)
			}
			_ = cli.EndIteration(0)
			_ = cli.Finalize()
			return
		}
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := mem.Get(metadata.Key{Name: "temp", Iteration: 0, Source: 0})
	if !ok {
		t.Fatal("zero-copy dataset missing")
	}
	if got := mpi.BytesToFloat32s(b); got[5] != fieldData(9)[5] {
		t.Error("zero-copy payload mismatch")
	}
}

// statsRun runs iteration 0 on one node of `ranks` ranks, the dedicated core
// last: client c writes temp = fieldData(c+1) and count = 0..63 and raises
// do_stats, before its EndIteration or, with late, after it. It returns what
// was persisted and the dedicated core.
func statsRun(t *testing.T, cfg *config.Config, ranks int, late bool) (*MemPersister, *Server) {
	t.Helper()
	var counts []byte
	for i := range uint32(64) {
		counts = binary.LittleEndian.AppendUint32(counts, i)
	}
	mem := &MemPersister{}
	var srv *Server
	err := mpi.Run(ranks, ranks, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			srv = dep.Server
			if err := srv.Run(); err != nil {
				t.Error(err)
			}
			return
		}
		cli := dep.Client
		for _, err := range []error{
			cli.Write("temp", 0, mpi.Float32sToBytes(fieldData(comm.Rank()+1))),
			cli.Write("count", 0, counts),
		} {
			if err != nil {
				t.Error(err)
			}
		}
		signal := func() {
			if err := cli.Signal("do_stats", 0); err != nil {
				t.Error(err)
			}
		}
		if !late {
			signal()
		}
		if err := cli.EndIteration(0); err != nil {
			t.Error(err)
		}
		if late {
			signal()
		}
		if err := cli.Finalize(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.eventErrs > 0 {
		t.Fatalf("server failed to handle %d events", srv.eventErrs)
	}
	return mem, srv
}

// wantStats checks the persisted stats entry of temp for iteration 0, keyed
// by the dedicated core, against clients writing seeds 1..clients.
func wantStats(t *testing.T, mem *MemPersister, server, clients int) {
	t.Helper()
	b, ok := mem.Get(metadata.Key{Name: "stats:temp", Iteration: 0, Source: server})
	if !ok {
		t.Fatal("no stats:temp entry was persisted")
	}
	got := mpi.BytesToFloat64s(b)
	n := float64(clients)
	if want := []float64{1000, n*1000 + 63, (n+1)*500 + 31.5}; !slices.Equal(got, want) {
		t.Errorf("stats:temp = %v, want %v (min, max, mean over every client's piece)", got, want)
	}
}

// A global stats action covers every client's piece of the iteration, not the
// last one it visits, and its entry is persisted with the iteration.
func TestSignalGlobalAction(t *testing.T) {
	mem, _ := statsRun(t, testCfg(t, "mutex", 1), 4, false)
	wantStats(t, mem, 3, 3)
	// 3 clients × (temp + count) + one entry for the one real variable.
	if mem.Len() != 3*2+1 {
		t.Errorf("persisted %d datasets, want 7", mem.Len())
	}
}

// Only real variables get stats: an int field holding 0..63 is not read as
// float32 (which would give a max of 8.8e-44).
func TestSignalStatsOnlyReal(t *testing.T) {
	mem, _ := statsRun(t, testCfg(t, "mutex", 1), 2, false)
	if b, ok := mem.Get(metadata.Key{Name: "stats:count", Iteration: 0, Source: 1}); ok {
		t.Errorf("int variable count got stats %v", mpi.BytesToFloat64s(b))
	}
	wantStats(t, mem, 1, 1)
}

// With two shard loops the action runs on whichever loop counts the last
// signal; its entry goes into the store both share, so no run loses it.
func TestSignalStatsUnderShards(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	cfg.ShardCount = 2
	for run := 0; run < 40; run++ {
		mem, _ := statsRun(t, cfg, 5, false)
		wantStats(t, mem, 4, 4)
		if t.Failed() {
			t.Fatalf("run %d", run)
		}
	}
}

// A signal raised after the client's own EndIteration finds the iteration
// already taken for persistence: it adds nothing, and nothing is left behind
// in the catalog.
func TestSignalAfterEndIteration(t *testing.T) {
	mem, srv := statsRun(t, testCfg(t, "mutex", 1), 2, true)
	if _, ok := mem.Get(metadata.Key{Name: "stats:temp", Iteration: 0, Source: 1}); ok {
		t.Error("a late signal added stats to an iteration already persisted")
	}
	if mem.Len() != 2 {
		t.Errorf("persisted %d datasets, want 2", mem.Len())
	}
	if its := srv.eng.Store().Iterations(); len(its) != 0 {
		t.Errorf("catalog holds iterations %v after the run, want none", its)
	}
}

func TestSignalUndeclaredFails(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if dep.IsClient() {
			if err := dep.Client.Signal("ghost", 0); err == nil {
				t.Error("undeclared signal should fail")
			}
			_ = dep.Client.Finalize()
			return
		}
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClientAPIErrors(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if !dep.IsClient() {
			_ = dep.Server.Run()
			return
		}
		cli := dep.Client
		if err := cli.Write("ghost", 0, nil); err == nil {
			t.Error("undeclared variable should fail")
		}
		if err := cli.Write("temp", 0, make([]byte, 3)); err == nil {
			t.Error("size mismatch should fail")
		}
		if err := cli.Commit("temp", 0); err == nil {
			t.Error("commit without alloc should fail")
		}
		if _, err := cli.Alloc("ghost", 0, layout.Block{}); err == nil {
			t.Error("alloc of undeclared variable should fail")
		}
		if _, err := cli.Alloc("temp", 1, layout.Block{}); err != nil {
			t.Error(err)
		}
		if _, err := cli.Alloc("temp", 1, layout.Block{}); err == nil {
			t.Error("double alloc should fail")
		}
		if err := cli.EndIteration(1); err == nil {
			t.Error("end-iteration with pending alloc should fail")
		}
		if err := cli.Commit("temp", 1); err != nil {
			t.Error(err)
		}
		if err := cli.EndIteration(1); err != nil {
			t.Error(err)
		}
		if err := cli.Finalize(); err != nil {
			t.Error(err)
		}
		if err := cli.Finalize(); err != nil {
			t.Error("double finalize should be nil")
		}
		if err := cli.Write("temp", 2, make([]byte, 256)); err == nil {
			t.Error("write after finalize should fail")
		}
		if _, err := cli.Alloc("temp", 2, layout.Block{}); err == nil {
			t.Error("alloc after finalize should fail")
		}
		if err := cli.Signal("note", 2); err == nil {
			t.Error("signal after finalize should fail")
		}
		if err := cli.EndIteration(2); err == nil {
			t.Error("end-iteration after finalize should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An event the engine cannot handle is counted, and the first is logged
// with the server and iteration; the run goes on.
func TestServerCollectsHandleErrors(t *testing.T) {
	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	defer log.SetFlags(log.Flags())
	defer log.SetOutput(log.Writer())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	cfg := testCfg(t, "mutex", 1)
	plane := obs.NewPlane(0)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}, Obs: plane})
		if dep.IsClient() {
			_ = dep.Client.Finalize()
			return
		}
		srv = dep.Server
		// An external tool injects a write for an undeclared variable.
		srv.shards[0].queue.Push(event.Event{Kind: event.WriteNotification, Name: "ghost", Iteration: 0})
		_ = srv.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	if err := obs.WriteSamples(&expo, plane.Registry().Gather()); err != nil {
		t.Fatal(err)
	}
	if want := `damaris_server_event_errors_total{server="1"} 1`; !strings.Contains(expo.String(), want) {
		t.Errorf("registry lacks %q", want)
	}
	if line := logged.String(); strings.Count(line, "\n") != 1 || !strings.Contains(line, "ghost") ||
		!strings.Contains(line, "server=1") || !strings.Contains(line, "iteration=0") {
		t.Errorf("logged %q, want one line naming ghost, server 1 and iteration 0", line)
	}
}

func TestLeftoverIterationFlushedOnExit(t *testing.T) {
	// A client that writes but never calls EndIteration (crash model):
	// the server must still flush the data at shutdown.
	cfg := testCfg(t, "mutex", 1)
	mem := &MemPersister{}
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: mem})
		if dep.IsClient() {
			_ = dep.Client.Write("temp", 7, mpi.Float32sToBytes(fieldData(1)))
			_ = dep.Client.Finalize() // no EndIteration
			return
		}
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get(metadata.Key{Name: "temp", Iteration: 7, Source: 0}); !ok {
		t.Error("leftover iteration was not flushed")
	}
}

func TestBackpressureSmallBuffer(t *testing.T) {
	// Buffer fits exactly one variable write; multiple iterations force the
	// client to wait for the server to drain — the paper's regime where
	// output frequency exceeds I/O capacity.
	cfgStr := `
<simulation>
  <buffer size="256" cores="1"/>
  <layout name="field" type="real" dimensions="16,4"/>
  <variable name="temp" layout="field"/>
</simulation>`
	cfg, err := config.ParseString(cfgStr)
	if err != nil {
		t.Fatal(err)
	}
	mem := &MemPersister{}
	err = mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			for it := int64(0); it < 10; it++ {
				if err := dep.Client.Write("temp", it, mpi.Float32sToBytes(fieldData(int(it)))); err != nil {
					t.Error(err)
					return
				}
				_ = dep.Client.EndIteration(it)
			}
			_ = dep.Client.Finalize()
			return
		}
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 10 {
		t.Errorf("persisted = %d, want 10", mem.Len())
	}
}

func TestServerStats(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	plane := obs.NewPlane(0)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}, Obs: plane})
		if dep.IsClient() {
			for it := int64(0); it < 3; it++ {
				_ = dep.Client.Write("temp", it, mpi.Float32sToBytes(fieldData(0)))
				_ = dep.Client.EndIteration(it)
			}
			_ = dep.Client.Finalize()
			return
		}
		srv = dep.Server
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	if err := obs.WriteSamples(&expo, plane.Registry().Gather()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`damaris_server_iterations_total{server="1"} 3`,
		`damaris_server_bytes_written_total{server="1"} 768`,
		`damaris_shm_allocated_bytes{server="1"} 1536`, // two phases of the three declared variables
		`damaris_shm_free_bytes{server="1"} 1.048576e+06`,
		`damaris_shm_reserves_total{server="1"} 3`,
		`damaris_shm_releases_total{server="1"} 3`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("registry lacks %q", want)
		}
	}
	if srv.SpareSeconds() < 0 || srv.BusySeconds() < 0 {
		t.Error("negative durations")
	}
	if n := srv.pipe.writes.Count(); n != 3 {
		t.Errorf("write times recorded for %d iterations, want 3", n)
	}
}

func TestDSFPersisterEndToEnd(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	dir := t.TempDir()
	pers := &DSFPersister{Backend: fileBackend(t, dir), Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel, Node: 0, ServerID: 3}
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: pers})
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
	if err != nil {
		t.Fatal(err)
	}
	files := objectNames(t, pers.Backend)
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	r, err := dsf.Open(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks()) != 3 { // 3 clients × 1 variable
		t.Errorf("chunks = %d", len(r.Chunks()))
	}
	// Find source 1's chunk and verify payload.
	i := slices.IndexFunc(r.Chunks(), func(m dsf.ChunkMeta) bool {
		return m.Name == "temp" && m.Iteration == 0 && m.Source == 1
	})
	if i < 0 {
		t.Fatal("chunk missing")
	}
	b, err := r.ReadChunk(i)
	if err != nil {
		t.Fatal(err)
	}
	if got := mpi.BytesToFloat32s(b); got[0] != fieldData(1)[0] {
		t.Error("payload mismatch")
	}
}

func TestDeployValidation(t *testing.T) {
	cfgNoClients := testCfg(t, "mutex", 4)
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		if _, err := Deploy(comm, cfgNoClients, nil, Options{Persister: &NullPersister{}}); err == nil {
			t.Error("all-dedicated node should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// No persister and no <store backend>: there is nowhere to write, and
	// every rank says so before deploying anything.
	cfg := testCfg(t, "mutex", 1)
	err = mpi.Run(4, 4, func(comm *mpi.Comm) {
		if _, err := Deploy(comm, cfg, nil, Options{}); err == nil || !strings.Contains(err.Error(), "<store backend>") {
			t.Errorf("deploy without a destination: error %v, want one naming <store backend>", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, 1, func(comm *mpi.Comm) {
		if _, err := Deploy(nil, nil, nil, Options{}); err == nil {
			t.Error("nil world should fail")
		}
		if _, err := Deploy(comm, nil, nil, Options{}); err == nil {
			t.Error("nil config should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A DSFPersister without a Backend has nowhere to write: Persist fails.
func TestDSFPersisterRequiresBackend(t *testing.T) {
	p := &DSFPersister{}
	if err := p.Persist(0, batchEntries(1, 1)[0].Entries); err == nil || !strings.Contains(err.Error(), "no backend") {
		t.Errorf("Persist without a backend: error %v", err)
	}
}

func TestPersistErrorSurfacesFromRun(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	boom := errors.New("disk full")
	var srvErr error
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: failingPersister{boom}})
		if dep.IsClient() {
			_ = dep.Client.Write("temp", 0, mpi.Float32sToBytes(fieldData(0)))
			_ = dep.Client.EndIteration(0)
			_ = dep.Client.Finalize()
			return
		}
		srvErr = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if srvErr == nil || !errors.Is(srvErr, boom) {
		t.Errorf("Run error = %v, want wrapped %v", srvErr, boom)
	}
}

type failingPersister struct{ err error }

func (f failingPersister) Persist(int64, []*metadata.Entry) error { return f.err }

// Property: client group partitioning is a balanced, contiguous cover.
func TestQuickGroupPartition(t *testing.T) {
	f := func(cRaw, sRaw uint8) bool {
		clients := int(cRaw%64) + 1
		servers := int(sRaw%8) + 1
		if servers > clients {
			return true
		}
		seen := make([]int, clients)
		total := 0
		minSize, maxSize := clients+1, 0
		for g := 0; g < servers; g++ {
			group := groupClients(g, clients, servers)
			if len(group) == 0 {
				return false // every server must have clients
			}
			if len(group) < minSize {
				minSize = len(group)
			}
			if len(group) > maxSize {
				maxSize = len(group)
			}
			for _, c := range group {
				seen[c]++
				if groupOf(c, clients, servers) != g {
					return false
				}
			}
			total += len(group)
		}
		if total != clients {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false // exactly one server per client
			}
		}
		return maxSize-minSize <= 1 // balanced
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
