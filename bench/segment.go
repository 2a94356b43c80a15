package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/gateway"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

const (
	// readThink is the reader's pause between a reply and its next request.
	readThink = 2 * time.Millisecond
	// quietReads is the number of gateway reads the traced segment issues
	// after the writers have finished, alone in the process, so that the
	// heap a read costs can be told from the heap a write costs.
	quietReads = 200
	// partCacheBytes is the concurrent reader's part cache, deliberately
	// below the 128 MiB it reads from, so reads miss as well as hit.
	partCacheBytes = 16 * mib
)

// segConfig is everything one segment depends on.
type segConfig struct {
	w      workload
	seed   int64
	seg    int
	traced bool
	dir    string        // fresh directory the segment owns and removes
	cap    time.Duration // the iteration loop stops early once this has passed
}

// segResult is what one segment measured. Durations are milliseconds unless
// named otherwise.
type segResult struct {
	iterations int // iterations actually run (the time cap may cut the plan short)

	setupS   float64 // CPU seconds
	parseUS  float64
	deployMS float64

	phases []float64 // write phase per client per timed iteration
	acks   []float64 // last EndIteration entry -> Commit returned, per timed iteration
	reads  []float64 // ReadChunk call -> return

	windowS    float64 // first timed write -> last Server.Run returned
	timedBytes int64   // user bytes written inside the window
	userBytes  int64   // user bytes written by the whole segment
	cpuS       float64
	alloc      uint64
	mallocs    uint64
	heapSys    uint64
	objects    int

	store    store.Stats
	pipeline []core.PipelineStats // one per dedicated core
	gateway  gateway.Stats        // when the concurrent reader stopped

	quietReadAlloc uint64 // TotalAlloc delta over the quiet read pass
	quietReadBytes int64

	epoch    time.Time   // set-up start, the time base of spans
	endEntry []time.Time // per iteration: when the last client entered EndIteration
	steal    float64
	spans    []span
	tally
}

// tally counts operations against attempts; the first few failures keep
// their message for the report.
type tally struct {
	attempted, failed int
	messages          []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.messages) < 8 {
		t.messages = append(t.messages, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.messages {
		if len(t.messages) < 8 {
			t.messages = append(t.messages, m)
		}
	}
}

// jitterFault models the slow, variable storage target: a log-normal sleep
// before every object commit, drawn from the segment's own stream.
func jitterFault(w workload, seed int64) store.Fault {
	if w.JitterMedianMS == 0 {
		return nil
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return store.FaultFunc(func(op, _ string) error {
		if op != store.OpCommit {
			return nil
		}
		mu.Lock()
		delay := w.JitterMedianMS * math.Exp(rng.NormFloat64()*w.JitterSigma)
		mu.Unlock()
		if delay > w.JitterCapMS {
			delay = w.JitterCapMS
		}
		time.Sleep(time.Duration(delay * float64(time.Millisecond)))
		return nil
	})
}

// statingBackend is what both shipped backends are: the gateway needs the
// ObjectStater half to revalidate its TOC cache.
type statingBackend interface {
	store.Backend
	store.ObjectStater
}

func openBackend(w workload, dir string, fault store.Fault) (statingBackend, error) {
	opts := store.Options{PartSize: w.PartSize, Fault: fault}
	if w.Backend == "obj" {
		return store.NewObjStore(dir, opts)
	}
	return store.NewFileStore(dir, opts)
}

// runSegment deploys the workload once, drives it to completion, verifies
// everything it left behind and removes its directory.
func runSegment(sc segConfig) (res *segResult, err error) {
	w := sc.w
	res = &segResult{}
	defer func() {
		if rmErr := os.RemoveAll(sc.dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	// Leave the previous segment's garbage behind so that the heap held
	// when the window closes is this segment's own.
	debug.FreeOSMemory()
	cpu0 := readCPUTimes()

	// ---- set-up (timed): parse, generate inputs, open backend, deploy ----
	// Set-up is charged in CPU seconds: its wall time swings by a third
	// when the sandbox throttles, the work it does not.
	setupStart, setupCPU := time.Now(), processCPU()
	res.epoch = setupStart
	cfg, err := config.ParseString(w.configXML())
	if err != nil {
		return nil, err
	}
	res.parseUS = us(time.Since(setupStart))
	in := genInputs(w, sc.seed)
	if err := os.MkdirAll(sc.dir, 0o755); err != nil {
		return nil, err
	}
	segSeed := subSeed(sc.seed, w.Name, fmt.Sprint(sc.seg))
	inner, err := openBackend(w, sc.dir, jitterFault(w, subSeed(segSeed, "jitter")))
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if sc.traced {
		rec = newRecorder(setupStart)
	}
	jan := newJanitor(w, inner, sc.dir)
	wrapped := wrapBackend(inner, rec, jan.committed)
	dsfp := &core.DSFPersister{Backend: wrapped, Codec: w.Codec, GzipLevel: dsf.DefaultGzipLevel,
		ServerID: clients}
	pool := dsf.NewEncodePool(w.Encode)
	dsfp.SetEncodePool(pool)
	opts := core.Options{Persister: dsfp}
	if sc.traced {
		opts.Persister = &persister{inner: dsfp, rec: rec, rank: clients}
	}

	var (
		mu          sync.Mutex // guards res fields written by ranks
		rankErr     error
		setupOnce   sync.Once
		windowOnce  sync.Once
		windowStart time.Time
		cpuStart    time.Duration
		memStart    memSample
		windowEnd   time.Time
		limit       atomic.Int64 // iterations to run; lowered by the time cap
		writers     sync.WaitGroup
		deployStart = time.Now()
	)
	limit.Store(int64(w.Iterations))
	writers.Add(clients)
	fail := func(e error) {
		mu.Lock()
		if rankErr == nil {
			rankErr = e
		}
		mu.Unlock()
	}
	phases := make([][]float64, clients)
	entries := make([][]time.Time, clients)
	tallies := make([]tally, clients)

	writersDone := make(chan struct{})
	go func() { writers.Wait(); close(writersDone) }()
	janitorDone := make(chan struct{})
	go func() { jan.run(); close(janitorDone) }()
	var (
		gw *gateway.Gateway
		rd *reader
	)
	readerDone := make(chan struct{})
	if w.Reader {
		gw, err = gateway.New(gateway.Config{Backend: wrapped, PartCacheBytes: partCacheBytes})
		if err != nil {
			return nil, err
		}
		rd = newReader(gw, jan, in, rec, subSeed(segSeed, "reader"), 0)
		go func() { rd.beside(writersDone); close(readerDone) }()
	} else {
		close(readerDone)
	}

	ranks := clients + w.Servers
	runErr := mpi.Run(ranks, ranks, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, opts)
		if err != nil {
			fail(err)
			if comm.Rank() < clients {
				writers.Done()
			}
			return
		}
		if !dep.IsClient() {
			mu.Lock()
			if d := ms(time.Since(deployStart)); d > res.deployMS {
				res.deployMS = d
			}
			mu.Unlock()
			if err := dep.Server.Run(); err != nil {
				fail(err)
			}
			now := time.Now()
			mu.Lock()
			if now.After(windowEnd) {
				windowEnd = now
			}
			res.pipeline = append(res.pipeline, dep.Server.PipelineStats())
			mu.Unlock()
			return
		}
		defer writers.Done()
		c := comm.Rank()
		dep.ClientComm.Barrier()
		setupOnce.Do(func() { res.setupS = (processCPU() - setupCPU).Seconds() })

		compute := time.Duration(w.ComputeMS * float64(time.Millisecond))
		if c == 1 {
			time.Sleep(compute / 2) // second client half a period out of phase
		}
		deadline := time.Now().Add(sc.cap)
		t := &tallies[c]
		for it := int64(0); it < limit.Load(); it++ {
			if c == 0 && it >= warmup && time.Now().After(deadline) {
				// Every client is at most Queue iterations ahead of this
				// one, so all of them can still reach the new limit.
				if l := it + int64(w.Queue) + 1; l < limit.Load() {
					limit.Store(l)
				}
			}
			for v := range in[c] {
				stamp(in[c][v], it)
			}
			if it == warmup {
				windowOnce.Do(func() {
					memStart, cpuStart = readMem(), processCPU()
					windowStart = time.Now()
				})
			}
			start := time.Now()
			at := start
			for v := range in[c] {
				if err := dep.Client.Write(varName(v), it, in[c][v]); err != nil {
					t.fail("client %d write %s it %d: %v", c, varName(v), it, err)
				} else {
					t.ok()
				}
				if rec != nil {
					now := time.Now()
					rec.add(span{Name: spanClientWrite, Parent: spanWritePhase, Rank: c, Iter: it,
						Start: rec.since(at), End: rec.since(now), Bytes: int64(len(in[c][v]))})
					at = now
				}
			}
			if rec == nil {
				at = time.Now()
			}
			entries[c] = append(entries[c], at)
			if err := dep.Client.EndIteration(it); err != nil {
				t.fail("client %d end-iteration %d: %v", c, it, err)
			} else {
				t.ok()
			}
			end := time.Now()
			if rec != nil {
				rec.add(span{Name: spanEndIteration, Parent: spanWritePhase, Rank: c, Iter: it,
					Start: rec.since(at), End: rec.since(end)})
				rec.add(span{Name: spanWritePhase, Rank: c, Iter: it,
					Start: rec.since(start), End: rec.since(end), Bytes: int64(w.Vars * w.VarBytes)})
			}
			if it >= warmup {
				phases[c] = append(phases[c], ms(end.Sub(start)))
			}
			if compute > 0 {
				time.Sleep(compute)
			}
		}
		if err := dep.Client.Finalize(); err != nil {
			fail(err)
		}
	})
	// ---- the window is closed: everything below is untimed ----
	cpuEnd, memEnd := processCPU(), readMem()
	pool.Close()
	<-readerDone
	if runErr != nil {
		fail(runErr)
	}
	if rankErr != nil {
		jan.stop()
		<-janitorDone
		return nil, fmt.Errorf("%s segment %d: %w", w.Name, sc.seg, rankErr)
	}

	n := int(limit.Load())
	res.iterations = n
	res.userBytes = int64(n) * w.iterBytes()
	res.timedBytes = int64(n-warmup) * w.iterBytes()
	res.windowS = windowEnd.Sub(windowStart).Seconds()
	res.cpuS = (cpuEnd - cpuStart).Seconds()
	res.alloc = memEnd.totalAlloc - memStart.totalAlloc
	res.mallocs = memEnd.mallocs - memStart.mallocs
	res.heapSys = memEnd.heapSys
	res.store = inner.Stats()
	for c := range tallies {
		res.phases = append(res.phases, phases[c]...)
		res.merge(tallies[c])
	}
	res.endEntry = make([]time.Time, n)
	for it := range res.endEntry {
		for c := range entries {
			if e := entries[c][it]; e.After(res.endEntry[it]) {
				res.endEntry[it] = e
			}
		}
	}

	// Drain the janitor before anything reads or removes the directory: it
	// is still checking TOCs and deleting objects of the last commits.
	jan.stop()
	<-janitorDone
	res.objects = jan.objects
	res.merge(jan.tally)
	res.acks = jan.acks(res.endEntry, warmup)

	if rd != nil {
		res.reads = rd.lat
		res.gateway = gw.Stats()
		res.merge(rd.tally)
		if sc.traced {
			q := newReader(gw, jan, in, rec, subSeed(segSeed, "quiet-reader"), int64(len(rd.lat)))
			before := readMem()
			q.quiet(quietReads)
			res.quietReadAlloc = readMem().totalAlloc - before.totalAlloc
			res.quietReadBytes = q.bytes
			res.merge(q.tally)
		}
	}

	// Correctness gate: every (variable, source, iteration) durable exactly
	// once, every retained object byte-identical to its regenerated input.
	verifyBackend := store.Backend(inner)
	if sc.traced {
		verifyBackend = wrapped // store.read_at spans come from this read-back
	}
	res.merge(jan.verifyDurableOnce(n))
	res.merge(jan.verifyRetained(verifyBackend, in))

	res.steal = stealShare(cpu0, readCPUTimes())
	if rec != nil {
		jan.linkStoreSpans(rec.spans)
		res.spans = rec.spans
	}
	return res, nil
}

// segmentDir names a fresh directory under root.
func segmentDir(root, workload string, traced bool, seg, attempt int) string {
	kind := "e2e"
	if traced {
		kind = "traced"
	}
	return filepath.Join(root, fmt.Sprintf("%s-%s-%d-%d", workload, kind, seg, attempt))
}
