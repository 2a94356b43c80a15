//go:build goexperiment.synctest

package cm1

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// The paper's comparison (Figs. 2, 4 and 6) taken on the middleware that
// ships: every cell runs CM1 over mpi.Run inside a synctest bubble, under
// Damaris, file-per-process or collective I/O, each writing through one
// store.Backend whose metadata operations queue on a shared service. In the
// bubble the clock moves only when every goroutine is durably blocked, so a
// compute phase is a time.Sleep, a metadata operation costs its service time
// and CPU work costs nothing: the write phase a rank sees is exactly the
// time it waited on I/O. Run with
//
//	GOEXPERIMENT=synctest go test -run TestVirtualTime ./internal/cm1
//
// and -update to rewrite testdata/virtual.golden.

var update = flag.Bool("update", false, "rewrite testdata/virtual.golden from this run")

const (
	vComputePhase = 25 * time.Millisecond
	vIterations   = 20
	vMetaServers  = 2
	vMetaService  = 4 * time.Millisecond
	vBufferBytes  = 8 << 20
	// vTick splits virtual time into two half-grids: a compute phase ends
	// on a whole tick, a metadata operation half a tick past one. A writer
	// on the dedicated core that finishes a commit and a client that ends an
	// iteration therefore never act at the same instant, where the order of
	// the two (does the writer's batch take the new iteration?) would be the
	// runtime scheduler's choice.
	vTick = time.Microsecond
)

// metadataService is the paper's shared metadata server (§II-B): k servers,
// each holding an object's create (store.OpPut) or its commit
// (store.OpCommit) for the service time, first come first served. Requests
// that arrive at one virtual instant are served in (op, name) order, so the
// schedule never depends on which goroutine the runtime ran first.
type metadataService struct {
	service time.Duration

	mu      sync.Mutex // held only while scheduling, never across a wait
	free    []time.Time
	pending []*metaRequest
	commits int
}

type metaRequest struct {
	at, done time.Time
	key      string
}

func newMetadataService(servers int, service time.Duration) *metadataService {
	return &metadataService{service: service, free: make([]time.Time, servers)}
}

// Op implements store.Fault.
func (m *metadataService) Op(op, name string) error {
	if op != store.OpPut && op != store.OpCommit {
		return nil
	}
	r := &metaRequest{at: time.Now(), key: op + " " + name}
	m.mu.Lock()
	m.pending = append(m.pending, r)
	if op == store.OpCommit {
		m.commits++
	}
	m.mu.Unlock()
	// The clock moves past r.at only once every goroutine is blocked, so
	// every request of this instant is pending by the time this sleep ends.
	time.Sleep(time.Nanosecond)
	m.mu.Lock()
	m.schedule(time.Now())
	done := r.done
	m.mu.Unlock()
	time.Sleep(time.Until(done))
	return nil
}

// schedule assigns a server to every pending request that arrived before
// now, in (arrival, key) order: each starts when it arrived or when the
// first server frees up, whichever is later.
func (m *metadataService) schedule(now time.Time) {
	slices.SortFunc(m.pending, func(a, b *metaRequest) int {
		return cmp.Or(a.at.Compare(b.at), strings.Compare(a.key, b.key))
	})
	n := 0
	for _, r := range m.pending {
		if !r.at.Before(now) {
			break
		}
		i := 0
		for j, f := range m.free {
			if f.Before(m.free[i]) {
				i = j
			}
		}
		r.done = onGrid(later(r.at, m.free[i]).Add(m.service), vTick/2)
		m.free[i] = r.done
		n++
	}
	m.pending = slices.Delete(m.pending, 0, n)
}

// onGrid returns the first instant from t on that lies off past a whole
// vTick.
func onGrid(t time.Time, off time.Duration) time.Time {
	r := (t.UnixNano() - int64(off)) % int64(vTick)
	if r == 0 {
		return t
	}
	return t.Add(vTick - time.Duration(r))
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// virtualCell is one run of the harness.
type virtualCell struct {
	strategy     string // damaris, fpp or collective
	ranks, cores int    // world size and cores per node
	queue        int    // Damaris's persist-queue
	service      time.Duration
}

// virtualResult is what a cell measured, all in virtual time.
type virtualResult struct {
	phases  []time.Duration // every compute rank's write phases, rank-major
	commits int             // objects the metadata service committed
	run     time.Duration   // from the first rank's start to the last's exit
	durable int64           // bytes the store committed
}

// runVirtual runs one cell in its own bubble. Everything it reports is
// gathered inside the bubble and handed out through a channel made outside
// it, the happens-before edge the race detector needs.
func runVirtual(t *testing.T, c virtualCell) virtualResult {
	t.Helper()
	meta := newMetadataService(vMetaServers, c.service)
	out, err := store.NewFileStore(t.TempDir(), store.Options{Fault: meta})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	nodes := c.ranks / c.cores
	compute := c.ranks
	var cfg *config.Config
	if c.strategy == "damaris" {
		compute -= nodes
		if cfg, err = config.ParseString(ConfigXML(smallParams(compute, 1), vBufferBytes, "mutex", 1)); err != nil {
			t.Fatal(err)
		}
		cfg.PersistQueueDepth = c.queue
	}
	p := smallParams(compute, 1)
	done := make(chan virtualResult, 1)
	synctest.Run(func() {
		start := time.Now()
		phases := make([][]time.Duration, c.ranks)
		var mu sync.Mutex
		var errs []error
		fail := func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		err := mpi.Run(c.ranks, c.cores, func(w *mpi.Comm) {
			comm := w
			var b Backend
			switch c.strategy {
			case "damaris":
				per := &core.DSFPersister{Backend: out, Codec: dsf.None, Node: w.Rank() / c.cores, ServerID: w.Rank()}
				dep, err := core.Deploy(w, cfg, nil, core.Options{Persister: per})
				if err != nil {
					fail(err)
					return
				}
				if !dep.IsClient() {
					if err := dep.Server.Run(); err != nil {
						fail(err)
					}
					return
				}
				comm, b = dep.ClientComm, NewDamarisBackend(dep.Client)
			case "fpp":
				b = NewFPPBackend(out, dsf.None, w.Rank())
			case "collective":
				b = NewCollectiveBackend(out, w)
			}
			s, err := New(comm, p)
			if err != nil {
				fail(err)
				return
			}
			mine := make([]time.Duration, vIterations)
			for it := range mine {
				s.Step()
				time.Sleep(time.Until(onGrid(time.Now().Add(vComputePhase), 0)))
				t0 := time.Now()
				if err := b.WritePhase(s, int64(it)); err != nil {
					fail(err)
					return
				}
				mine[it] = time.Since(t0)
			}
			if err := b.Close(); err != nil {
				fail(err)
			}
			phases[w.Rank()] = mine
		})
		if err != nil {
			errs = append(errs, err)
		}
		if len(errs) > 0 {
			t.Errorf("%+v: %v", c, errs)
		}
		r := virtualResult{run: time.Since(start), commits: meta.commits, durable: out.Stats().PutBytes}
		for _, ph := range phases {
			r.phases = append(r.phases, ph...)
		}
		done <- r
	})
	return <-done
}

// writeColumns formats a result's write-phase columns: mean, max and spread (max −
// min) over every rank and iteration, and how many phases waited at all.
func (r virtualResult) writeColumns() string {
	var sum, hi time.Duration
	lo := r.phases[0]
	blocked := 0
	for _, d := range r.phases {
		sum += d
		hi, lo = max(hi, d), min(lo, d)
		if d > 0 {
			blocked++
		}
	}
	mean := sum / time.Duration(len(r.phases))
	return fmt.Sprintf("%8.2f %8.2f %8.2f %9s", ms(mean), ms(hi), ms(hi-lo), fmt.Sprintf("%d/%d", blocked, len(r.phases)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestVirtualTime runs the two tables and compares them with the golden.
func TestVirtualTime(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Strategies: %d iterations, %v compute phase, %d metadata servers at %v per create or commit\n",
		vIterations, vComputePhase, vMetaServers, vMetaService)
	fmt.Fprintf(&buf, "%-10s %5s %5s %8s %8s %8s %9s %8s %8s %8s\n",
		"strategy", "ranks", "cores", "mean_ms", "max_ms", "spread", "blocked", "commits", "run_s", "MB/s")
	for _, strategy := range []string{"damaris", "fpp", "collective"} {
		for _, cores := range []int{4, 8} {
			for _, ranks := range []int{8, 16, 32} {
				c := virtualCell{strategy: strategy, ranks: ranks, cores: cores, queue: 1, service: vMetaService}
				r := runVirtual(t, c)
				fmt.Fprintf(&buf, "%-10s %5d %5d %s %8.2f %8.3f %8.2f\n", strategy, ranks, cores, r.writeColumns(),
					float64(r.commits)/vIterations, r.run.Seconds(), float64(r.durable)/1e6/r.run.Seconds())
			}
		}
	}
	fmt.Fprintf(&buf, "\n# Damaris at 32 ranks, 4 cores per node: persist-queue x metadata service time\n")
	fmt.Fprintf(&buf, "%5s %10s %8s %8s %8s %9s %8s %8s\n", "queue", "service_ms", "mean_ms", "max_ms", "spread", "blocked", "commits", "run_s")
	for _, service := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond} {
		for _, q := range []int{1, 2, 4, 8} {
			r := runVirtual(t, virtualCell{strategy: "damaris", ranks: 32, cores: 4, queue: q, service: service})
			fmt.Fprintf(&buf, "%5d %10.0f %s %8.2f %8.3f\n", q, ms(service), r.writeColumns(),
				float64(r.commits)/vIterations, r.run.Seconds())
		}
	}
	golden := filepath.Join("testdata", "virtual.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tables differ from %s (rerun with -update if the change is meant):\n%s", golden, buf.Bytes())
	}
}
