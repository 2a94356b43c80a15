package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"damaris/internal/aggregate"
	"damaris/internal/dsf"
	"damaris/internal/event"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/shm"
	"damaris/internal/store"
	"damaris/internal/transform"
)

// The probes time one layer's public functions in isolation: single
// goroutine, fixed operation counts, buffers from the same field generator
// the workloads use. They say what a layer costs when nothing contends;
// the traced workloads say what it costs in place.

// perOp runs fn n times and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// discardEpochs is an aggregate.EpochWriter that drops every merged epoch.
type discardEpochs struct{}

func (discardEpochs) PersistAsWith(string, []*metadata.Entry, map[string]string) error { return nil }

// runProbes returns the probe-based per-layer metrics. dir is scratch space
// it removes again.
func runProbes(seed int64, dir string) (map[string]float64, error) {
	v := make(map[string]float64)
	rng := rand.New(rand.NewSource(subSeed(seed, "probe")))
	big := field(rng, 0, mib)
	small := big[:32<<10]
	quarter := big[:256<<10]
	floats := func(n int) layout.Layout { return layout.MustNew(layout.Float32, int64(n/4)) }

	// shm: the mutex allocator a client write goes through.
	seg, err := shm.NewSegment(64 * mib)
	if err != nil {
		return nil, err
	}
	reserveCopy := func(src []byte) func(int) {
		return func(int) {
			b, err := seg.ReserveWait(0, int64(len(src)))
			if err != nil {
				panic(err) // a 64 MiB segment holding one block cannot be full
			}
			copy(b.Data(), src)
			b.Release()
		}
	}
	v["shm.reserve_release_ns_per_op"] = perOp(20000, func(int) {
		b, err := seg.ReserveWait(0, int64(len(small)))
		if err != nil {
			panic(err)
		}
		b.Release()
	})
	v["shm.reserve_copy_ns_per_byte_1m"] = perOp(200, reserveCopy(big)) / float64(len(big))
	v["shm.reserve_copy_ns_per_byte_32k"] = perOp(4000, reserveCopy(small)) / float64(len(small))
	seg.Close()

	// event: one notification through the queue.
	q := event.NewQueue()
	ev := event.Event{Kind: event.WriteNotification, Name: varName(0)}
	pushPop := func() {
		q.Push(ev)
		q.TryPop()
	}
	v["event.push_pop_ns_per_op"] = perOp(100000, func(int) { pushPop() })
	v["event.push_allocs_per_op"] = testing.AllocsPerRun(1000, pushPop)

	// metadata: catalogue and hand over 64-entry iterations.
	for _, shards := range []int{1, 2} {
		st := metadata.NewSharded(shards)
		lay := floats(len(small))
		var put, take time.Duration
		const iterations, perIter = 200, 64
		for it := int64(0); it < iterations; it++ {
			start := time.Now()
			for e := 0; e < perIter; e++ {
				err := st.Put(&metadata.Entry{
					Key:    metadata.Key{Name: varName(e / clients), Iteration: it, Source: e % clients},
					Layout: lay, Inline: small,
				})
				if err != nil {
					return nil, err
				}
			}
			mid := time.Now()
			st.TakeIteration(it)
			put += mid.Sub(start)
			take += time.Since(mid)
		}
		suffix := ""
		if shards == 2 {
			suffix = "_2shards"
		}
		v["metadata.put_ns_per_op"+suffix] = float64(put) / (iterations * perIter)
		v["metadata.take_iteration_ns_per_entry"+suffix] = float64(take) / (iterations * perIter)
	}

	// transform: the two halves of the ShuffleGzip codec.
	var shuffled, packed []byte
	v["transform.shuffle_ns_per_byte"] = perOp(50, func(int) {
		shuffled, err = transform.ShuffleTo(shuffled, big, 4)
	}) / float64(len(big))
	if err != nil {
		return nil, err
	}
	v["transform.gzip_ns_per_byte"] = perOp(4, func(int) {
		packed, err = transform.CompressGzipTo(packed, shuffled, dsf.DefaultGzipLevel)
	}) / float64(len(big))
	if err != nil {
		return nil, err
	}
	v["transform.ratio"] = float64(len(packed)) / float64(len(big))

	// dsf: the writer over io.Discard, then the reader over memory.
	chunks := func(data []byte, codec dsf.Codec, n int) ([]dsf.ChunkMeta, [][]byte) {
		metas, datas := make([]dsf.ChunkMeta, n), make([][]byte, n)
		for i := range metas {
			metas[i] = dsf.ChunkMeta{Name: varName(i), Source: 0, Layout: floats(len(data)), Codec: codec}
			datas[i] = data
		}
		return metas, datas
	}
	writeAll := func(out io.Writer, data []byte, codec dsf.Codec, pool *dsf.EncodePool) error {
		w, err := dsf.NewWriter(out)
		if err != nil {
			return err
		}
		metas, datas := chunks(data, codec, 8)
		if err := w.WriteChunks(metas, datas, pool); err != nil {
			return err
		}
		return w.Close()
	}
	v["dsf.write_raw_ns_per_byte"] = perOp(20, func(int) {
		err = writeAll(io.Discard, big, dsf.None, nil)
	}) / float64(8*len(big))
	if err != nil {
		return nil, err
	}
	v["dsf.write_allocs_per_chunk"] = testing.AllocsPerRun(5, func() {
		err = writeAll(io.Discard, big, dsf.None, nil)
	}) / 8
	pool := dsf.NewEncodePool(2)
	for name, p := range map[string]*dsf.EncodePool{"pool0": nil, "pool2": pool} {
		v["dsf.write_shufflegzip_ns_per_byte_"+name] = perOp(3, func(int) {
			err = writeAll(io.Discard, quarter, dsf.ShuffleGzip, p)
		}) / float64(8*len(quarter))
		if err != nil {
			pool.Close()
			return nil, err
		}
	}
	pool.Close()
	var file bytes.Buffer
	if err := writeAll(&file, quarter, dsf.None, nil); err != nil {
		return nil, err
	}
	var rd *dsf.Reader
	v["dsf.open_toc_us"] = perOp(200, func(int) {
		rd, err = dsf.OpenReaderAt(bytes.NewReader(file.Bytes()), int64(file.Len()))
	}) / 1e3
	if err != nil {
		return nil, err
	}
	v["dsf.read_chunk_ns_per_byte"] = perOp(400, func(i int) {
		_, err = rd.ReadChunk(i % rd.NumChunks())
	}) / float64(len(quarter))
	if err != nil {
		return nil, err
	}

	// store: Create/Write/Commit of one 8 MiB raw stream per backend. Every
	// stream is stamped so the object store never dedupes one against another.
	defer os.RemoveAll(dir)
	stream := append([]byte(nil), big...)
	n := 0
	object := func(b store.Backend) func() {
		return func() {
			n++
			ow, cerr := b.Create("probe.dsf")
			if cerr != nil {
				err = cerr
				return
			}
			for part := 0; part < 8; part++ {
				binary.LittleEndian.PutUint64(stream, uint64(n*8+part))
				if _, werr := ow.Write(stream); werr != nil {
					err = werr
				}
			}
			if _, cerr := ow.Commit(); cerr != nil {
				err = cerr
			}
		}
	}
	fs, err := store.NewFileStore(filepath.Join(dir, "file"), store.Options{})
	if err != nil {
		return nil, err
	}
	writeFile := object(fs)
	v["store.file_object_ns_per_byte"] = perOp(10, func(int) { writeFile() }) / float64(8*len(big))
	osb, err := store.NewObjStore(filepath.Join(dir, "obj"), store.Options{PartSize: mib})
	if err != nil {
		return nil, err
	}
	writeObj := object(osb)
	v["store.obj_object_ns_per_byte"] = perOp(10, func(int) { writeObj() }) / float64(8*len(big))
	v["store.obj_allocs_per_part"] = testing.AllocsPerRun(3, writeObj) / 8
	if err != nil {
		return nil, err
	}

	// aggregate: two members' contributions merged into a discarded epoch.
	agg, err := aggregate.New(aggregate.Config{
		Mode: "core", Members: []int{0, 1},
		Sink: &aggregate.StoreSink{
			Writer:     discardEpochs{},
			ObjectName: func(int64) string { return "probe" },
			MemberAttr: "servers", Mode: "core",
		},
	})
	if err != nil {
		return nil, err
	}
	contribution := func(member int, epoch int64) []*metadata.Entry {
		es := make([]*metadata.Entry, 4)
		for i := range es {
			es[i] = &metadata.Entry{
				Key:    metadata.Key{Name: varName(i), Iteration: epoch, Source: member},
				Layout: floats(len(quarter)), Inline: quarter,
			}
		}
		return es
	}
	v["aggregate.submit_merge_ns_per_byte"] = perOp(2000, func(i int) {
		a := agg.Submit(0, int64(i), contribution(0, int64(i)))
		b := agg.Submit(1, int64(i), contribution(1, int64(i)))
		if e := <-a; e != nil {
			err = e
		}
		if e := <-b; e != nil {
			err = e
		}
	}) / float64(8*len(quarter))
	agg.MemberDone(0)
	agg.MemberDone(1)
	if cerr := agg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return v, err
}
