package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/plugin"
	"damaris/internal/store"
)

// IterationBatch couples one completed iteration with its catalogued
// entries, for persisters that can make several iterations durable in one
// call.
type IterationBatch struct {
	Iteration int64
	Entries   []*metadata.Entry
}

// BatchPersister is an optional Persister extension the write-behind
// pipeline probes for: one durable call covering several queued iterations,
// amortizing the per-call fixed costs (file creation, header/TOC writes,
// fsync) that dominate when the persister is slow relative to the
// simulation's output frequency. Implementations must be safe for
// concurrent calls from multiple writer goroutines.
type BatchPersister interface {
	PersistBatch(batch []IterationBatch) error
}

// StoreStatser is implemented by persisters that can report their storage
// backend's metrics; Server.PipelineStats probes for it.
type StoreStatser interface {
	StoreStats() store.Stats
}

// DSFPersister writes each completed iteration as one DSF object per
// dedicated core — the paper's "gathering data into large files" that cuts
// metadata pressure from one-file-per-process to one-file-per-node. Every
// object goes to Backend, streamed and then atomically committed: the DSF
// directory is the "file" backend, and the same persister streams into the
// content-addressed object store unchanged. A deployment builds one per
// dedicated core over the backend <store backend> names (newDefaultPersister);
// callers with their own persister set Backend themselves.
type DSFPersister struct {
	// Backend receives every DSF stream; it is required. The caller owns its
	// lifecycle (a backend may be shared across persisters and servers).
	Backend store.Backend
	// Codec encodes every chunk (None by default; ShuffleGzip gives the
	// paper's overhead-free compression, since it runs on the dedicated
	// core's spare time).
	Codec dsf.Codec
	// GzipLevel is the compress/gzip level for Gzip/ShuffleGzip chunks,
	// following compress/gzip exactly: the zero value is
	// gzip.NoCompression (stored), -1 the default level, -2 HuffmanOnly.
	// Constructors that want default compression must say so
	// (dsf.DefaultGzipLevel); config-driven deployments get it from the
	// pipeline's gzip_level attribute (Config.PersistGzipLevel).
	GzipLevel int
	// Node and ServerID name the output files.
	Node     int
	ServerID int

	mu     sync.Mutex
	pool   *dsf.EncodePool
	tracer *obs.Tracer
	idle   []chunkBatch // batches between writeFile calls; as many as ever ran at once
}

// chunkBatch is what one writeFile call hands to dsf.Writer.WriteChunks.
type chunkBatch struct {
	metas []dsf.ChunkMeta
	datas [][]byte
}

// SetEncodePool attaches the encode worker pool chunks are compressed on;
// nil (or no call) keeps serial encoding. The caller owns the pool's
// lifecycle and must not Close it while Persist calls are in flight. The
// server wires this automatically for the default persister it creates;
// externally constructed persisters opt in explicitly, since a persister
// shared across servers must not have its pool torn down by whichever
// server finishes first.
func (p *DSFPersister) SetEncodePool(pool *dsf.EncodePool) {
	p.mu.Lock()
	p.pool = pool
	p.mu.Unlock()
}

// EncodePool returns the attached encode pool, if any — the server reads it
// for encode-stage metrics.
func (p *DSFPersister) EncodePool() *dsf.EncodePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pool
}

// SetTracer attaches a lifecycle tracer: each DSF object written records a
// StageCommit span around the backend's atomic publish. Nil disables.
func (p *DSFPersister) SetTracer(tr *obs.Tracer) {
	p.mu.Lock()
	p.tracer = tr
	p.mu.Unlock()
}

func (p *DSFPersister) traceHandle() *obs.Tracer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracer
}

// newDefaultPersister builds the persister a dedicated core (or a node's
// aggregation leader) writes through when Options names none: a DSF
// persister over the backend <store backend> names, encoding with the
// pipeline's codec on a pool of encode_workers, recording commit spans on
// the deployment's tracer. The caller owns the returned pool (nil when
// encode_workers is 0) and the persister's Backend, and closes both after
// its last Persist.
//
// Only this persister has a pool and a tracer installed for it: an
// externally provided one may be shared across servers, where per-server
// installation would race and the first server to close would tear the pool
// out from under the others; such persisters wire their own (see
// SetEncodePool, SetTracer). Likewise the backend: every dedicated core opens
// its own instance over the same target, which is how object-store
// deployments work — dedupe composes across instances, and each core's
// store metrics count its own writes only.
func newDefaultPersister(cfg *config.Config, opts Options, node, worldRank int) (*DSFPersister, *dsf.EncodePool, error) {
	codec, err := dsf.CodecNamed(cfg.PersistCodec)
	if err != nil {
		return nil, nil, fmt.Errorf("core: server %d: %w", worldRank, err)
	}
	b, err := store.OpenWith(cfg.PersistBackend, cfg.StoreOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("core: server %d: persist backend: %w", worldRank, err)
	}
	p := &DSFPersister{Backend: b, Codec: codec, GzipLevel: cfg.PersistGzipLevel, Node: node, ServerID: worldRank}
	// Shared by every persist writer of the dedicated core: chunk compression
	// fans out across the pool while each writer streams its file in
	// deterministic order.
	pool := dsf.NewEncodePool(cfg.EncodeWorkers)
	p.SetEncodePool(pool)
	p.SetTracer(opts.Obs.Tracer())
	return p, pool, nil
}

// Persist writes all entries of the iteration into one new DSF file.
func (p *DSFPersister) Persist(iteration int64, entries []*metadata.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	name := fmt.Sprintf("node%04d_srv%04d_it%06d.dsf", p.Node, p.ServerID, iteration)
	return p.writeFile(name, entries, nil)
}

// PersistAsWith writes entries into one DSF object under a caller-chosen
// name instead of the node/server/iteration scheme — the exact writeFile
// path — with caller-chosen file-level attributes (overriding the defaults
// on key collision). It implements aggregate.EpochWriter: the aggregation
// leader commits each merged epoch through this one call, which is what
// keeps the merged path on the exact same backend protocol (stream, then
// atomic publish) as the per-core path.
func (p *DSFPersister) PersistAsWith(name string, entries []*metadata.Entry, attrs map[string]string) error {
	if len(entries) == 0 {
		return nil
	}
	return p.writeFile(name, entries, attrs)
}

// PersistBatch writes the entries of several iterations into a single DSF
// file, named after the batch's iteration span. One file per batch instead
// of one per iteration cuts the fixed per-file cost (create, header, TOC,
// close) by the batch factor — the pipeline's multi-writer batching path.
// Readers are unaffected: every chunk carries its own iteration tuple.
func (p *DSFPersister) PersistBatch(batch []IterationBatch) error {
	var entries []*metadata.Entry
	var lo, hi int64
	for _, b := range batch {
		if len(b.Entries) == 0 {
			continue
		}
		if len(entries) == 0 || b.Iteration < lo {
			lo = b.Iteration
		}
		if len(entries) == 0 || b.Iteration > hi {
			hi = b.Iteration
		}
		entries = append(entries, b.Entries...)
	}
	if len(entries) == 0 {
		return nil
	}
	name := fmt.Sprintf("node%04d_srv%04d_it%06d-%06d.dsf", p.Node, p.ServerID, lo, hi)
	return p.writeFile(name, entries, nil)
}

// StoreStats snapshots the backend's metrics.
func (p *DSFPersister) StoreStats() store.Stats { return p.Backend.Stats() }

func (p *DSFPersister) writeFile(name string, entries []*metadata.Entry, attrs map[string]string) error {
	if p.Backend == nil {
		return fmt.Errorf("persist: %s: no backend", name)
	}
	// The object writer may keep the raw chunks dsf.Writer hands it through
	// WritePinned until Commit or Abort returns. Every entry stays reserved
	// until writeFile returns — the pipeline and the aggregation leader both
	// release after persist — so the shared-memory bytes outlive that.
	ow, err := p.Backend.Create(name)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer ow.Abort() // does nothing once committed, like w.Abort once closed
	w, err := dsf.NewWriter(ow)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := w.SetGzipLevel(p.GzipLevel); err != nil {
		return err
	}
	w.SetAttribute("writer", "damaris-dedicated-core")
	w.SetAttribute("node", fmt.Sprint(p.Node))
	for k, v := range attrs {
		w.SetAttribute(k, v)
	}
	cb := p.borrowBatch(entries)
	err = w.WriteChunks(cb.metas, cb.datas, p.EncodePool())
	p.returnBatch(cb)
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	// The stream is complete; only the commit makes it visible. A crash (or
	// injected failure) before this point leaves no torn object behind.
	commitStart := time.Now()
	_, commitErr := ow.Commit()
	var bytes int64
	for _, e := range entries {
		bytes += e.Size()
	}
	p.traceHandle().RecordSince(obs.StageCommit, p.ServerID, entries[0].Key.Iteration,
		commitStart, bytes, commitErr != nil)
	if commitErr != nil {
		return fmt.Errorf("persist: %w", commitErr)
	}
	return nil
}

// chunkOf describes one catalogued entry to the DSF writer.
func chunkOf(e *metadata.Entry, codec dsf.Codec) dsf.ChunkMeta {
	return dsf.ChunkMeta{
		Name:      e.Key.Name,
		Iteration: e.Key.Iteration,
		Source:    e.Key.Source,
		Layout:    e.Layout,
		Global:    e.Global,
		Codec:     codec,
	}
}

// borrowBatch describes entries for WriteChunks in a batch taken from the
// persister's free list — persist writers run concurrently, so the scratch
// cannot be a field.
func (p *DSFPersister) borrowBatch(entries []*metadata.Entry) (cb chunkBatch) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		cb, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	for _, e := range entries {
		cb.metas = append(cb.metas, chunkOf(e, p.Codec))
		cb.datas = append(cb.datas, e.Bytes())
	}
	return cb
}

// returnBatch takes back a batch WriteChunks is done with, cleared so that an
// idle batch pins no entry's name or bytes.
func (p *DSFPersister) returnBatch(cb chunkBatch) {
	clear(cb.metas)
	clear(cb.datas)
	cb.metas, cb.datas = cb.metas[:0], cb.datas[:0]
	p.mu.Lock()
	p.idle = append(p.idle, cb)
	p.mu.Unlock()
}

// NullPersister discards data (for benchmarks isolating the middleware
// path from disk speed).
type NullPersister struct{}

// Persist drops the entries.
func (*NullPersister) Persist(int64, []*metadata.Entry) error { return nil }

// PersistBatch drops a whole batch in one call, so the pipeline batches over
// a NullPersister as it would over a real one.
func (*NullPersister) PersistBatch([]IterationBatch) error { return nil }

// MemPersister retains deep copies of all persisted entries, for tests and
// in-situ analysis (the paper's simulation/visualization coupling
// direction, §VI).
type MemPersister struct {
	mu   sync.Mutex
	data map[metadata.Key][]byte
}

// Persist copies the entries into memory.
func (p *MemPersister) Persist(_ int64, entries []*metadata.Entry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.data == nil {
		p.data = make(map[metadata.Key][]byte)
	}
	for _, e := range entries {
		p.data[e.Key] = append([]byte(nil), e.Bytes()...)
	}
	return nil
}

// Get returns the retained copy for a tuple.
func (p *MemPersister) Get(k metadata.Key) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.data[k]
	return b, ok
}

// Len returns the number of retained datasets.
func (p *MemPersister) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.data)
}

// RegisterBuiltins adds the built-in actions to a registry, skipping names
// already present so user overrides win. There is one, "stats", the paper's
// "statistical studies" smart action (statsAction).
func RegisterBuiltins(reg *plugin.Registry) {
	_ = reg.Register("stats", statsAction)
}

// statsLayout is the layout of a stats entry: minimum, maximum, mean.
var statsLayout = layout.MustNew(layout.Float64, 3)

// statsAction adds, for every real (float32) variable of the iteration, one
// entry named "stats:<variable>" keyed by (iteration, ctx.Source): a
// double[3] of the minimum, maximum and mean over every element of every
// piece of the variable catalogued when the action runs. A global event runs
// it once every client has signalled, so it covers every client's piece and
// is keyed by the dedicated core. The entry is an inline piece of the
// iteration like any other, so it is persisted, spilled and merged with the
// iteration's data; an iteration already taken for persistence gets none.
func statsAction(ctx *plugin.Context, _ string) error {
	entries := ctx.Store.Iteration(ctx.Iteration) // sorted by name: a variable's pieces are adjacent
	for i := 0; i < len(entries); {
		name := entries[i].Key.Name
		mn, mx, sum, n := math.Inf(1), math.Inf(-1), 0.0, 0
		for ; i < len(entries) && entries[i].Key.Name == name; i++ {
			if entries[i].Layout.Type() != layout.Float32 {
				continue
			}
			for _, x := range mpi.BytesToFloat32s(entries[i].Bytes()) {
				mn, mx, sum, n = min(mn, float64(x)), max(mx, float64(x)), sum+float64(x), n+1
			}
		}
		if n == 0 {
			continue
		}
		var b []byte
		for _, v := range [3]float64{mn, mx, sum / float64(n)} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		err := ctx.Store.Put(&metadata.Entry{
			Key:    metadata.Key{Name: "stats:" + name, Iteration: ctx.Iteration, Source: ctx.Source},
			Layout: statsLayout,
			Inline: b,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
