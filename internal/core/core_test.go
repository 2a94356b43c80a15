package core

import (
	"errors"
	"fmt"
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
  <event name="note" action="log" scope="local"/>
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
			buf, err := cli.Alloc("temp", 0)
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

func TestSignalGlobalAction(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	var srv *Server
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			_ = cli.WriteFloat32s("temp", 0, fieldData(1))
			if err := cli.Signal("do_stats", 0); err != nil {
				t.Error(err)
			}
			_ = cli.EndIteration(0)
			_ = cli.Finalize()
			return
		}
		srv = dep.Server
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	v := srv.Engine().Context().Value("stats:temp")
	if v == nil {
		t.Fatal("stats action did not run")
	}
	mm := v.([3]float64)
	if mm[0] != 1000 || mm[1] != 1063 {
		t.Errorf("stats = %v", mm)
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
		if _, err := cli.Alloc("ghost", 0); err == nil {
			t.Error("alloc of undeclared variable should fail")
		}
		if _, err := cli.Alloc("temp", 1); err != nil {
			t.Error(err)
		}
		if _, err := cli.Alloc("temp", 1); err == nil {
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
		if _, err := cli.Alloc("temp", 2); err == nil {
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

func TestWriteDynamicLayout(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if dep.IsClient() {
			cli := dep.Client
			// a per-iteration particle array, not in the config
			lay := layout.MustNew(layout.Byte, 40)
			if err := cli.WriteDynamic("particles", 0, make([]byte, 40), lay); err != nil {
				t.Error(err)
			}
			if err := cli.WriteDynamic("particles2", 0, nil, lay); err == nil {
				t.Error("dynamic write with wrong size should fail")
			}
			_ = cli.EndIteration(0)
			_ = cli.Finalize()
			return
		}
		srv = dep.Server
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(srv.HandleErrors()); n != 0 {
		t.Errorf("server errors: %v", srv.HandleErrors())
	}
}

func TestServerCollectsHandleErrors(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if dep.IsClient() {
			_ = dep.Client.Finalize()
			return
		}
		srv = dep.Server
		// An external tool injects a write for an undeclared variable.
		srv.Inject(event.Event{Kind: event.WriteNotification, Name: "ghost", Iteration: 0})
		_ = srv.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := srv.HandleErrors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "ghost") {
		t.Errorf("HandleErrors = %v", errs)
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
			_ = dep.Client.WriteFloat32s("temp", 7, fieldData(1))
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
				if err := dep.Client.WriteFloat32s("temp", it, fieldData(int(it))); err != nil {
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

func TestClientPhaseTimes(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if dep.IsClient() {
			cli := dep.Client
			for it := int64(0); it < 5; it++ {
				_ = cli.WriteFloat32s("temp", it, fieldData(0))
				_ = cli.EndIteration(it)
			}
			if got := len(cli.PhaseTimes()); got != 5 {
				t.Errorf("PhaseTimes = %d, want 5", got)
			}
			if got := len(cli.WriteTimes()); got != 5 {
				t.Errorf("WriteTimes = %d, want 5", got)
			}
			if cli.WriteStats().N != 5 {
				t.Error("WriteStats wrong")
			}
			_ = cli.Finalize()
			return
		}
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The per-call and per-iteration records keep the most recent recentCap
// values, oldest first, and nothing before them: memory flat in run length.
func TestRecentKeepsTheLastValues(t *testing.T) {
	// The iterations a server acked (int64) and the seconds each took
	// (float64, Client.writeDurs and Server.writeDurs/flushLats alike).
	checkRecent(t, func(i int) int64 { return int64(i) })
	checkRecent(t, func(i int) float64 { return float64(i) })
}

func checkRecent[T comparable](t *testing.T, val func(int) T) {
	t.Helper()
	var r recent[T]
	for i := 0; i < recentCap+5; i++ {
		if i == 3 {
			if got := r.values(); len(got) != 3 || got[0] != val(0) || got[2] != val(2) {
				t.Fatalf("values before wrapping = %v", got)
			}
		}
		r.add(val(i))
	}
	got := r.values()
	if len(got) != recentCap || got[0] != val(5) || got[recentCap-1] != val(recentCap+4) {
		t.Fatalf("after %d adds: %d values, first %v, last %v", recentCap+5, len(got), got[0], got[len(got)-1])
	}
	if cap(r.buf) > 2*recentCap {
		t.Errorf("ring holds room for %d values, cap is %d", cap(r.buf), recentCap)
	}
}

func TestServerStats(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if dep.IsClient() {
			for it := int64(0); it < 3; it++ {
				_ = dep.Client.WriteFloat32s("temp", it, fieldData(0))
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
	if len(srv.WriteTimes()) != 3 {
		t.Errorf("WriteTimes = %d", len(srv.WriteTimes()))
	}
	if got := srv.Iterations(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Iterations = %v", got)
	}
	// The registry reads a counter, not the length of that record.
	reg := obs.NewRegistry()
	srv.RegisterObs(reg)
	var expo strings.Builder
	if err := obs.WriteSamples(&expo, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	if want := `damaris_server_iterations_total{server="1"} 3`; !strings.Contains(expo.String(), want) {
		t.Errorf("registry lacks %q", want)
	}
	if srv.BytesWritten() != 3*256 {
		t.Errorf("BytesWritten = %d, want %d", srv.BytesWritten(), 3*256)
	}
	if srv.SpareSeconds() < 0 || srv.BusySeconds() < 0 {
		t.Error("negative durations")
	}
	if srv.WriteStats().N != 3 {
		t.Error("WriteStats wrong")
	}
}

func TestDSFPersisterEndToEnd(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	dir := t.TempDir()
	pers := &DSFPersister{Dir: dir, Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel, Node: 0, ServerID: 3}
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{OutputDir: dir, Persister: pers})
		if dep.IsClient() {
			_ = dep.Client.WriteFloat32s("temp", 0, fieldData(dep.Client.Source()))
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
	files := pers.Files()
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	r, err := dsf.Open(files[0])
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
	i := r.Find("temp", 0, 1)
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
		if _, err := Deploy(comm, cfgNoClients, nil, Options{}); err == nil {
			t.Error("all-dedicated node should fail")
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

func TestPersistErrorSurfacesFromRun(t *testing.T) {
	cfg := testCfg(t, "mutex", 1)
	boom := errors.New("disk full")
	var srvErr error
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, _ := Deploy(comm, cfg, nil, Options{Persister: failingPersister{boom}})
		if dep.IsClient() {
			_ = dep.Client.WriteFloat32s("temp", 0, fieldData(0))
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
