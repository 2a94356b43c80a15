package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/plugin"
	"damaris/internal/store"
	"damaris/internal/transform"
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
// metadata pressure from one-file-per-process to one-file-per-node. The
// destination is a store.Backend: the classic DSF directory is simply the
// "file" backend, and the same persister streams into the content-addressed
// object store (or any registered backend) unchanged.
type DSFPersister struct {
	// Dir is the output directory, used only when Backend is nil: the
	// persister then opens a "file" backend over it (created on demand) —
	// the pre-subsystem behavior, byte-identical on disk.
	Dir string
	// Backend, when non-nil, receives every DSF stream. The caller owns its
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

	mu      sync.Mutex
	backend store.Backend // resolved from Backend or Dir on first use
	pool    *dsf.EncodePool
	tracer  *obs.Tracer
	files   []string
	idle    []chunkBatch // batches between writeFile calls; as many as ever ran at once
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
// externally constructed persisters opt in explicitly (as cmd/damaris-run
// does), since a persister shared across servers must not have its pool
// torn down by whichever server finishes first.
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
// persister over the configured backend, compressing on a pool of
// encode_workers, recording commit spans on the deployment's tracer. The
// caller owns the returned pool and backend (either may be nil) and closes
// them after its last Persist.
//
// Only this persister has a pool and a tracer installed for it: an
// externally provided one may be shared across servers, where per-server
// installation would race and the first server to close would tear the pool
// out from under the others; such persisters wire their own (see
// SetEncodePool, SetTracer). Likewise the backend: every dedicated core opens
// its own instance over the same target, which is how object-store
// deployments work — dedupe composes across instances.
func newDefaultPersister(cfg *config.Config, opts Options, node, worldRank int) (*DSFPersister, *dsf.EncodePool, store.Backend, error) {
	p := &DSFPersister{Dir: opts.OutputDir, Node: node, ServerID: worldRank,
		GzipLevel: cfg.PersistGzipLevel}
	var backend store.Backend
	if cfg.PersistBackend != "" {
		b, err := store.OpenWith(cfg.PersistBackend, cfg.StoreOptions())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: server %d: persist backend: %w", worldRank, err)
		}
		p.Backend, backend = b, b
	}
	var pool *dsf.EncodePool
	if cfg.EncodeWorkers > 0 {
		// Shared by every persist writer of the dedicated core: chunk
		// compression fans out across the pool while each writer streams its
		// file in deterministic order.
		pool = dsf.NewEncodePool(cfg.EncodeWorkers)
		p.SetEncodePool(pool)
	}
	p.SetTracer(opts.Obs.Tracer())
	return p, pool, backend, nil
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

// resolveBackend returns the backend DSF streams go to, opening the legacy
// "file" backend over Dir on first use when none was provided.
func (p *DSFPersister) resolveBackend() (store.Backend, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backend != nil {
		return p.backend, p.Backend == nil, nil
	}
	if p.Backend != nil {
		p.backend = p.Backend
		return p.backend, false, nil
	}
	dir := p.Dir
	if dir == "" {
		dir = "."
	}
	fs, err := store.NewFileStore(dir, store.Options{})
	if err != nil {
		return nil, false, fmt.Errorf("persist: %w", err)
	}
	p.backend = fs
	return p.backend, true, nil
}

// StoreStats snapshots the backend's metrics (zero before the first write
// when the persister opens its own file backend lazily).
func (p *DSFPersister) StoreStats() store.Stats {
	p.mu.Lock()
	b := p.backend
	if b == nil {
		b = p.Backend
	}
	p.mu.Unlock()
	if b == nil {
		return store.Stats{}
	}
	return b.Stats()
}

func (p *DSFPersister) writeFile(name string, entries []*metadata.Entry, attrs map[string]string) error {
	b, implicitFile, err := p.resolveBackend()
	if err != nil {
		return err
	}
	ow, err := b.Create(name)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	w, err := dsf.NewWriter(ow)
	if err != nil {
		ow.Abort()
		return err
	}
	if err := w.SetGzipLevel(p.GzipLevel); err != nil {
		w.Abort()
		ow.Abort()
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
		w.Abort()
		ow.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		ow.Abort()
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
	recorded := name
	if implicitFile {
		// Legacy callers hold Dir-relative paths they dsf.Open directly.
		recorded = filepath.Join(p.Dir, name)
	}
	p.mu.Lock()
	p.files = append(p.files, recorded)
	p.mu.Unlock()
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

// Files lists the DSF objects written so far: filesystem paths when the
// persister manages its own file backend over Dir, backend object names
// when an explicit Backend was provided. The returned slice is a copy —
// callers may read it while writer goroutines keep appending.
func (p *DSFPersister) Files() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.files...)
}

// NullPersister discards data (for benchmarks isolating the middleware
// path from disk speed).
type NullPersister struct {
	mu    sync.Mutex
	bytes int64
}

// Persist counts and drops the entries.
func (p *NullPersister) Persist(_ int64, entries []*metadata.Entry) error {
	var b int64
	for _, e := range entries {
		b += e.Size()
	}
	p.mu.Lock()
	p.bytes += b
	p.mu.Unlock()
	return nil
}

// PersistBatch drops a whole batch in one call, so the pipeline batches over
// a NullPersister as it would over a real one.
func (p *NullPersister) PersistBatch(batch []IterationBatch) error {
	var b int64
	for _, ib := range batch {
		for _, e := range ib.Entries {
			b += e.Size()
		}
	}
	p.mu.Lock()
	p.bytes += b
	p.mu.Unlock()
	return nil
}

// Bytes returns the total payload bytes dropped.
func (p *NullPersister) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// MemPersister retains deep copies of all persisted entries, for tests and
// in-situ analysis demos (the paper's simulation/visualization coupling
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
// already present so user overrides win. Provided actions:
//
//   - "persist-gzip": marker consulted by persistency layers (no-op here;
//     compression choice is carried by DSFPersister.Codec)
//   - "stats": computes per-variable min/max/mean over the triggering
//     iteration and stores them in the plugin context under
//     "stats:<variable>" — the paper's "statistical studies" smart action
//   - "reduce16": re-encodes every float32 entry of the iteration with
//     16-bit precision reduction, the paper's visualization-precision path
//   - "log": records the event in the context under "log"
func RegisterBuiltins(reg *plugin.Registry) {
	_ = reg.Register("log", func(ctx *plugin.Context, ev string) error {
		var log []string
		if v := ctx.Value("log"); v != nil {
			log = v.([]string)
		}
		log = append(log, fmt.Sprintf("event %s at iteration %d from %d", ev, ctx.Iteration, ctx.Source))
		ctx.SetValue("log", log)
		return nil
	})
	_ = reg.Register("stats", func(ctx *plugin.Context, ev string) error {
		for _, e := range ctx.Store.Iteration(ctx.Iteration) {
			if e.Layout.Type().Size() != 4 {
				continue
			}
			xs := mpi.BytesToFloat32s(e.Bytes())
			if len(xs) == 0 {
				continue
			}
			mn, mx, sum := xs[0], xs[0], 0.0
			for _, x := range xs {
				if x < mn {
					mn = x
				}
				if x > mx {
					mx = x
				}
				sum += float64(x)
			}
			ctx.SetValue("stats:"+e.Key.Name, [3]float64{float64(mn), float64(mx), sum / float64(len(xs))})
		}
		return nil
	})
	_ = reg.Register("reduce16", func(ctx *plugin.Context, ev string) error {
		for _, e := range ctx.Store.Iteration(ctx.Iteration) {
			if e.Layout.Type().Size() != 4 {
				continue
			}
			xs := mpi.BytesToFloat32s(e.Bytes())
			reduced := transform.ReduceFloat32To16(xs)
			ctx.SetValue(fmt.Sprintf("reduced:%s:%d", e.Key.Name, e.Key.Source), reduced)
		}
		return nil
	})
	_ = reg.Register("persist-gzip", func(ctx *plugin.Context, ev string) error {
		ctx.SetValue("persist-codec", "gzip")
		return nil
	})
}
