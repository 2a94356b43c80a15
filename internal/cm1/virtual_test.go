//go:build goexperiment.synctest

package cm1

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"damaris/internal/store"
)

// The paper's comparison (Figs. 2, 4 and 6) taken on the middleware that
// ships: every cell is one RunWorld inside a synctest bubble, under
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
	// vJitterMedian is table 3's median metadata service time.
	vJitterMedian = 2 * time.Millisecond
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
// (store.OpCommit) for its cost, first come first served. Requests that
// arrive at one virtual instant are served in (op, name) order, so the
// schedule never depends on which goroutine the runtime ran first.
//
// An operation costs the service time times exp(σz), a log-normal jitter
// whose median is the service time. z is drawn from a PCG seeded by the
// FNV-64a hash of the operation's (op, name), so a draw does not depend on
// the order operations arrive in; at σ = 0 nothing is drawn.
type metadataService struct {
	service time.Duration
	sigma   float64

	mu      sync.Mutex // held only while scheduling, never across a wait
	free    []time.Time
	pending []*metaRequest
	commits int
}

type metaRequest struct {
	at, done time.Time
	key      string
	cost     time.Duration
}

func newMetadataService(servers int, service time.Duration, sigma float64) *metadataService {
	return &metadataService{service: service, sigma: sigma, free: make([]time.Time, servers)}
}

// Op implements store.Fault.
func (m *metadataService) Op(op, name string) error {
	if op != store.OpPut && op != store.OpCommit {
		return nil
	}
	r := &metaRequest{at: time.Now(), key: op + " " + name, cost: m.service}
	if m.sigma != 0 {
		h := fnv.New64a()
		h.Write([]byte(r.key))
		z := rand.New(rand.NewPCG(h.Sum64(), 0)).NormFloat64()
		r.cost = time.Duration(float64(m.service) * math.Exp(m.sigma*z))
	}
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
		start := r.at
		if m.free[i].After(start) {
			start = m.free[i]
		}
		r.done = onGrid(start.Add(r.cost), vTick/2)
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

// virtualCell is one run of the harness.
type virtualCell struct {
	strategy     string // damaris, fpp or collective
	ranks, cores int    // world size and cores per node
	queue        int    // Damaris's persist-queue
	service      time.Duration
	sigma        float64 // the metadata service's log-normal jitter
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
	meta := newMetadataService(vMetaServers, c.service, c.sigma)
	out, err := store.NewFileStore(t.TempDir(), store.Options{Fault: meta})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cfg := defaults(t)
	cfg.BufferSize, cfg.PersistQueueDepth = vBufferBytes, c.queue
	done := make(chan virtualResult, 1)
	synctest.Run(func() {
		start := time.Now()
		res, err := RunWorld(WorldSpec{Strategy: c.strategy, Ranks: c.ranks, CoresPerNode: c.cores,
			Steps: vIterations, OutputEvery: 1, Grid: smallParams, Config: cfg, Shared: out,
			AfterStep: func() { time.Sleep(time.Until(onGrid(time.Now().Add(vComputePhase), 0))) }})
		if err != nil {
			t.Errorf("%+v: %v", c, err)
		}
		r := virtualResult{run: time.Since(start), commits: meta.commits, durable: out.Stats().PutBytes}
		for _, ph := range res.Phases {
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
	for _, strategy := range Strategies {
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
	fmt.Fprintf(&buf, "\n# Jitter: %d cores per node, persist-queue 1, each metadata operation %v x exp(sigma z)\n",
		8, vJitterMedian)
	fmt.Fprintf(&buf, "%-10s %5s %5s %8s %8s %8s %9s\n", "strategy", "ranks", "sigma", "mean_ms", "max_ms", "spread", "blocked")
	for _, strategy := range Strategies {
		for _, sigma := range []float64{0, 0.5, 1} {
			for _, ranks := range []int{8, 16, 32} {
				r := runVirtual(t, virtualCell{strategy: strategy, ranks: ranks, cores: 8, queue: 1,
					service: vJitterMedian, sigma: sigma})
				fmt.Fprintf(&buf, "%-10s %5d %5.1f %s\n", strategy, ranks, sigma, r.writeColumns())
			}
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
