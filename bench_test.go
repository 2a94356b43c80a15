// Package damaris_test holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (each regenerates the
// figure's data from the simulator), plus micro-benchmarks of the real
// middleware's hot paths (shared-memory writes, event queue, compression,
// DSF persistence, CM1 stepping).
//
// Figure benchmarks take seconds per iteration, so `go test -bench=.` runs
// each once; use cmd/damaris-bench to print the actual tables.
package damaris_test

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"damaris/internal/cluster"
	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/event"
	"damaris/internal/experiment"
	"damaris/internal/iostrat"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/shm"
	"damaris/internal/sim"
	"damaris/internal/transform"
)

// benchExperiment regenerates one paper figure/table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiment.Run(id, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per evaluation artifact (paper §IV).

func BenchmarkFig2WritePhaseJitter(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3BluePrintVolumes(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4aScalabilityFactor(b *testing.B)      { benchExperiment(b, "fig4a") }
func BenchmarkFig4bRunTime(b *testing.B)                { benchExperiment(b, "fig4b") }
func BenchmarkFig5aDedicatedTimeKraken(b *testing.B)    { benchExperiment(b, "fig5a") }
func BenchmarkFig5bDedicatedTimeBluePrint(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig6AggregateThroughput(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkTable1Grid5000(b *testing.B)              { benchExperiment(b, "table1") }
func BenchmarkFig7SpareTimeFeatures(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkSchedulingIVD(b *testing.B)               { benchExperiment(b, "scheduling") }
func BenchmarkModelVA(b *testing.B)                     { benchExperiment(b, "model") }

// BenchmarkCompressionRatio measures the real §IV-D transformation stack on
// CM1-like data: gzip alone, and 16-bit reduction + shuffle + gzip.
func BenchmarkCompressionRatio(b *testing.B) {
	var field []float32
	err := mpi.Run(1, 1, func(comm *mpi.Comm) {
		p := cm1.Params{GlobalNX: 96, GlobalNY: 96, NZ: 24, PX: 1, PY: 1,
			DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		s, err := cm1.New(comm, p)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			s.Step()
		}
		field, _ = s.Field("theta")
	})
	if err != nil {
		b.Fatal(err)
	}
	raw := mpi.Float32sToBytes(field)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gz, err := transform.CompressGzip(raw, gzip.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		red := transform.ReduceFloat32To16(field)
		sh, err := transform.Shuffle(red[20:], 2)
		if err != nil {
			b.Fatal(err)
		}
		redGz, err := transform.CompressGzip(sh, gzip.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(transform.Ratio(len(raw), len(gz)), "gzip-ratio-%")
			b.ReportMetric(transform.Ratio(len(raw), len(redGz)), "reduce16-ratio-%")
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the middleware hot paths.

// BenchmarkShmWriteMutex measures the client write path (reserve + copy +
// release) under the mutex allocator.
func BenchmarkShmWriteMutex(b *testing.B) {
	benchShmWrite(b, false)
}

// BenchmarkShmWriteLockFree measures the same path under the lock-free
// partitioned allocator.
func BenchmarkShmWriteLockFree(b *testing.B) {
	benchShmWrite(b, true)
}

func benchShmWrite(b *testing.B, lockfree bool) {
	const size = 1 << 20
	var opts []shm.Option
	if lockfree {
		opts = append(opts, shm.WithLockFree(1))
	}
	seg, err := shm.NewSegment(8*size, opts...)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := seg.Reserve(0, size)
		if err != nil {
			b.Fatal(err)
		}
		copy(blk.Data(), data)
		blk.Release()
	}
}

// BenchmarkShmContention runs 8 concurrent writers against one segment —
// the paper's all-cores-copy-at-once moment.
func BenchmarkShmContention(b *testing.B) {
	const size = 64 << 10
	seg, err := shm.NewSegment(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	b.SetBytes(size * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk, err := seg.ReserveWait(0, size)
				if err != nil {
					b.Error(err)
					return
				}
				copy(blk.Data(), data)
				blk.Release()
			}()
		}
		wg.Wait()
	}
}

// BenchmarkEventQueue measures push+pop through the shared queue.
func BenchmarkEventQueue(b *testing.B) {
	q := event.NewQueue()
	for i := 0; i < b.N; i++ {
		q.Push(event.Event{Kind: event.UserSignal, Iteration: int64(i)})
		if _, ok := q.TryPop(); !ok {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkDamarisPipeline measures a full middleware round: 3 clients
// write one variable each, the dedicated core catalogs and drops them.
func BenchmarkDamarisPipeline(b *testing.B) {
	cfgXML := `
<simulation>
  <buffer size="16777216"/>
  <layout name="l" type="real" dimensions="64,64"/>
  <variable name="v" layout="l"/>
</simulation>`
	cfg, err := config.ParseString(cfgXML)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float32, 64*64)
	b.SetBytes(int64(len(data)*4) * 3)
	b.ResetTimer()
	err = mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, core.Options{Persister: &core.NullPersister{}})
		if err != nil {
			b.Error(err)
			return
		}
		if !dep.IsClient() {
			if err := dep.Server.Run(); err != nil {
				b.Error(err)
			}
			return
		}
		for i := 0; i < b.N; i++ {
			it := int64(i)
			if err := dep.Client.WriteFloat32s("v", it, data); err != nil {
				b.Error(err)
				return
			}
			if err := dep.Client.EndIteration(it); err != nil {
				b.Error(err)
				return
			}
		}
		_ = dep.Client.Finalize()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// slowBenchPersister sleeps a fixed latency per durable call (batched or
// not), modelling a persistency layer dominated by per-call fixed cost —
// the regime where synchronous flushing couples clients to I/O latency.
type slowBenchPersister struct{ delay time.Duration }

func (p slowBenchPersister) Persist(int64, []*metadata.Entry) error {
	time.Sleep(p.delay)
	return nil
}

func (p slowBenchPersister) PersistBatch([]core.IterationBatch) error {
	time.Sleep(p.delay)
	return nil
}

// benchPersistPipeline measures client-side iteration completion time
// against a slow persister, for a given write-behind pipeline shape.
func benchPersistPipeline(b *testing.B, workers, queue int) {
	cfgXML := fmt.Sprintf(`
<simulation>
  <buffer size="33554432"/>
  <pipeline workers="%d" queue="%d"/>
  <layout name="l" type="real" dimensions="64,64"/>
  <variable name="v" layout="l"/>
</simulation>`, workers, queue)
	cfg, err := config.ParseString(cfgXML)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float32, 64*64)
	b.ResetTimer()
	err = mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil,
			core.Options{Persister: slowBenchPersister{delay: 2 * time.Millisecond}})
		if err != nil {
			b.Error(err)
			return
		}
		if !dep.IsClient() {
			if err := dep.Server.Run(); err != nil {
				b.Error(err)
			}
			return
		}
		for i := 0; i < b.N; i++ {
			it := int64(i)
			if err := dep.Client.WriteFloat32s("v", it, data); err != nil {
				b.Error(err)
				return
			}
			if err := dep.Client.EndIteration(it); err != nil {
				b.Error(err)
				return
			}
		}
		// Stop timing before the final drain: the benchmark measures the
		// client-visible iteration time, not shutdown.
		b.StopTimer()
		_ = dep.Client.Finalize()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPersistPipelineSync vs BenchmarkPersistPipelineAsync4 is the
// paper's core claim made measurable: with a slow (sleeping) persister,
// the synchronous baseline couples every client iteration to the 2ms
// persist latency, while the write-behind pipeline (4 writers, queue 16,
// batched DSF-style durable calls) keeps client-side iteration completion
// independent of it — ≥5x faster per iteration on this workload.

func BenchmarkPersistPipelineSync(b *testing.B)   { benchPersistPipeline(b, 0, 1) }
func BenchmarkPersistPipelineAsync1(b *testing.B) { benchPersistPipeline(b, 1, 4) }
func BenchmarkPersistPipelineAsync4(b *testing.B) { benchPersistPipeline(b, 4, 16) }

// benchPersistDSF measures the full DSF persist hot path — encode (shuffle +
// gzip + CRC), stream, TOC, close — for one 8-chunk ShuffleGzip iteration
// per op, with the given encode worker count (0 = serial in-writer encode,
// the pre-pool baseline).
func benchPersistDSF(b *testing.B, encodeWorkers int) {
	dir := b.TempDir()
	pool := dsf.NewEncodePool(encodeWorkers)
	defer pool.Close()
	pers := &core.DSFPersister{Dir: dir, Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
	pers.SetEncodePool(pool)
	lay := layout.MustNew(layout.Float32, 128<<10)
	var entries []*metadata.Entry
	var total int64
	for src := 0; src < 8; src++ {
		xs := make([]float32, 128<<10)
		for i := range xs {
			xs[i] = 280 + float32(src) + 8*float32(math.Sin(float64(i)/600))
		}
		data := mpi.Float32sToBytes(xs)
		total += int64(len(data))
		entries = append(entries, &metadata.Entry{
			Key:    metadata.Key{Name: "theta", Source: src},
			Layout: lay,
			Inline: data,
		})
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pers.Persist(int64(i%64), entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = os.RemoveAll(dir)
}

// The encode/write split made measurable: with gzip dominating the persist
// cost, 4 encode workers should roughly quadruple persist throughput on a
// multicore host while producing byte-identical files (serial == worker
// output is asserted by TestWriteChunksDeterministicAcrossWorkerCounts).

func BenchmarkPersistDSFShuffleGzipSerial(b *testing.B)  { benchPersistDSF(b, 0) }
func BenchmarkPersistDSFShuffleGzipEncode2(b *testing.B) { benchPersistDSF(b, 2) }
func BenchmarkPersistDSFShuffleGzipEncode4(b *testing.B) { benchPersistDSF(b, 4) }

// BenchmarkDSFWrite measures persisting one 1 MiB chunk per iteration.
func BenchmarkDSFWrite(b *testing.B) {
	dir := b.TempDir()
	lay := layout.MustNew(layout.Float32, 256, 1024)
	data := make([]byte, lay.Bytes())
	b.SetBytes(lay.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("bench%03d.dsf", i%64))
		w, err := dsf.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteChunk(dsf.ChunkMeta{Name: "v", Layout: lay}, data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = os.RemoveAll(dir)
}

// BenchmarkCM1Step measures one mini-app timestep on a per-core subdomain
// sized like the paper's Kraken runs (44x44x200).
func BenchmarkCM1Step(b *testing.B) {
	err := mpi.Run(1, 1, func(comm *mpi.Comm) {
		p := cm1.Params{GlobalNX: 44, GlobalNY: 44, NZ: 200, PX: 1, PY: 1,
			DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		s, err := cm1.New(comm, p)
		if err != nil {
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimPhase9216 measures simulating one full 9,216-core
// file-per-process write phase (the scale that motivated the O(log n) link).
func BenchmarkSimPhase9216(b *testing.B) {
	plat := cluster.Kraken()
	for i := 0; i < b.N; i++ {
		if _, err := iostrat.SimulateFPP(plat, iostrat.Options{Cores: 9216, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEngine measures raw event throughput of the calendar.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(1, tick)
		}
	}
	eng.After(1, tick)
	eng.Run()
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// Ablation benchmarks (extensions beyond the paper's figures).

func BenchmarkAblationRatio(b *testing.B)   { benchExperiment(b, "ratio") }
func BenchmarkAblationStripes(b *testing.B) { benchExperiment(b, "stripes") }

// BenchmarkTransportSharedMemory vs BenchmarkTransportKernelPipe reproduces
// the paper's §V-B comparison with FUSE-based designs: "such a FUSE
// interface is about 10 times slower in transferring data than using shared
// memory". The pipe pushes every byte through the kernel twice (write +
// read), as a FUSE round trip does; the shared segment is one user-space
// copy.

func BenchmarkTransportSharedMemory(b *testing.B) {
	const size = 1 << 20
	seg, err := shm.NewSegment(4 * size)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := seg.Reserve(0, size)
		if err != nil {
			b.Fatal(err)
		}
		copy(blk.Data(), payload)
		blk.Release()
	}
}

func BenchmarkTransportKernelPipe(b *testing.B) {
	const size = 1 << 20
	r, w, err := os.Pipe()
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	payload := make([]byte, size)
	sink := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := io.ReadFull(r, sink); err != nil {
				done <- err
				return
			}
		}
	}()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
	<-done
}
