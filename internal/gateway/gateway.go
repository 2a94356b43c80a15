// Package gateway is the stateless read/serve plane over any store.Backend:
// the tier that turns the write path's "simulation output sink" into a data
// service analysis and visualization clients can hammer while the
// simulation runs (the coupling Damaris §VI motivates, served through the
// I/O cores' output rather than the simulation's memory).
//
// One Gateway serves DSF objects out of one backend URL through three
// layers:
//
//   - A manifest/TOC cache: object name → decoded dsf.Reader. Entries carry
//     the object's revalidation signature (manifest mtime/size, via
//     store.ObjectStater) and are invalidated when it changes.
//   - A bounded LRU part cache keyed by content digest
//     (store.PartCacheKey). Content addressing makes the key global: one
//     cached part serves every object that references the same bytes, so
//     dedupe on the write path becomes cache sharing on the read path.
//     Reads are served as read-only views of the cached parts, not copies.
//   - Parallel range reads: a range spanning several parts fans its missing
//     parts across a bounded fetcher pool (with per-digest singleflight)
//     instead of walking them serially.
//
// Gateways are stateless by construction — every byte they serve is
// re-derivable from the backend — so N replicas scale reads with zero
// coordination: requests partition by hash of the object name
// (shared-nothing, cf. the multicore-joins argument in PAPERS.md) and any
// replica can forward or redirect to the owner. See docs/gateway.md.
package gateway

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
	"damaris/internal/viz"
)

// Tuning defaults, used when Config leaves a knob zero.
const (
	// DefaultPartCacheBytes bounds the LRU part cache.
	DefaultPartCacheBytes = 64 << 20
	// DefaultFetchWorkers bounds parts fetched concurrently per gateway —
	// the read-side sibling of the object store's put_workers pool.
	DefaultFetchWorkers = 4
	// DefaultTOCEntries bounds the decoded-reader cache.
	DefaultTOCEntries = 64
)

// Config tunes a Gateway.
type Config struct {
	// Backend is the store being served (required). The gateway only reads;
	// many gateways may share one backend root.
	Backend store.Backend
	// PartCacheBytes bounds the LRU part cache (0 = default).
	PartCacheBytes int64
	// FetchWorkers bounds concurrent part fetches (0 = default).
	FetchWorkers int
	// TOCEntries bounds the decoded manifest/TOC cache (0 = default).
	TOCEntries int

	// Peers are the base URLs of every gateway replica serving this store
	// (self included), in the shared, identically-ordered list the replicas
	// partition objects over. Empty or single-entry means this gateway owns
	// everything.
	Peers []string
	// Self is this replica's index into Peers.
	Self int
	// Forward selects how misrouted requests reach their owner: true
	// proxies them through this replica, false answers 307 so the client
	// re-requests the owner directly.
	Forward bool

	// Obs is the telemetry plane the gateway registers its stats on and
	// serves over its mux (/metrics, /v1/metrics, /trace, /jitter, /readyz
	// — not pprof, which stays off the client-facing mux). Nil means the
	// gateway builds a private plane, so the read plane always exposes the
	// same metrics schema as the write plane.
	Obs *obs.Plane

	// ReadyProbe (optional) names a backend object /readyz must Stat
	// successfully before this gateway reports ready — typically an object
	// the writer is known to have committed. Any Stat error, including
	// not-found, keeps the gateway not-ready: a gateway whose store is
	// unreachable (or not yet populated) should not receive traffic.
	ReadyProbe string
}

// Stats is a snapshot of one gateway's serving metrics, in the same style
// as store.Stats.
type Stats struct {
	// Requests counts HTTP requests accepted (forwarded ones included).
	Requests int64
	// TOCHits/TOCMisses count manifest/TOC cache lookups; TOCRevalidations
	// the cheap signature probes on hits, TOCInvalidations the rebuilds a
	// changed signature forced, TOCEvictions the LRU pressure.
	TOCHits, TOCMisses int64
	TOCRevalidations   int64
	TOCInvalidations   int64
	TOCEvictions       int64
	// PartHits/PartMisses/PartEvictions count LRU part-cache traffic;
	// PartCacheBytes/PartCacheParts gauge its occupancy.
	PartHits, PartMisses, PartEvictions int64
	PartCacheBytes, PartCacheParts      int64
	// BackendGets counts part fetches that reached the backend — whole-part
	// Gets on a cache miss, ranged reads of parts too large to cache — the
	// figure that must stay flat on a warm cache. TOC loads are not part
	// fetches; the store's own Gets/GetBytes count them.
	BackendGets int64
	// FetchBytes is the part volume those fetches moved; BytesServed the
	// decoded volume returned to clients.
	FetchBytes  int64
	BytesServed int64
	// FetchLatency summarizes per-part backend fetch seconds.
	FetchLatency stats.Summary
	// RangesInFlight/MaxRangesInFlight gauge concurrent range reads.
	RangesInFlight, MaxRangesInFlight int64
	// Forwards and Redirects count requests routed to their owning replica.
	Forwards, Redirects int64
}

// PartHitRate is the fraction of part lookups served from the cache.
func (s Stats) PartHitRate() float64 {
	total := s.PartHits + s.PartMisses
	if total == 0 {
		return 0
	}
	return float64(s.PartHits) / float64(total)
}

// TOCHitRate is the fraction of object opens served from the TOC cache.
func (s Stats) TOCHitRate() float64 {
	total := s.TOCHits + s.TOCMisses
	if total == 0 {
		return 0
	}
	return float64(s.TOCHits) / float64(total)
}

// Emit writes the snapshot into a registry gather under the
// damaris_gateway_* families — the same figures /v1/stats serves as JSON,
// from the same snapshot function.
func (s Stats) Emit(e *obs.Emitter, labels ...string) {
	e.Counter("damaris_gateway_requests_total", float64(s.Requests), labels...)
	e.Counter("damaris_gateway_toc_hits_total", float64(s.TOCHits), labels...)
	e.Counter("damaris_gateway_toc_misses_total", float64(s.TOCMisses), labels...)
	e.Counter("damaris_gateway_toc_revalidations_total", float64(s.TOCRevalidations), labels...)
	e.Counter("damaris_gateway_toc_invalidations_total", float64(s.TOCInvalidations), labels...)
	e.Counter("damaris_gateway_toc_evictions_total", float64(s.TOCEvictions), labels...)
	e.Counter("damaris_gateway_part_hits_total", float64(s.PartHits), labels...)
	e.Counter("damaris_gateway_part_misses_total", float64(s.PartMisses), labels...)
	e.Counter("damaris_gateway_part_evictions_total", float64(s.PartEvictions), labels...)
	e.Gauge("damaris_gateway_part_cache_bytes", float64(s.PartCacheBytes), labels...)
	e.Gauge("damaris_gateway_part_cache_parts", float64(s.PartCacheParts), labels...)
	e.Counter("damaris_gateway_backend_gets_total", float64(s.BackendGets), labels...)
	e.Counter("damaris_gateway_fetch_bytes_total", float64(s.FetchBytes), labels...)
	e.Counter("damaris_gateway_bytes_served_total", float64(s.BytesServed), labels...)
	e.Gauge("damaris_gateway_ranges_in_flight", float64(s.RangesInFlight), labels...)
	e.Gauge("damaris_gateway_ranges_in_flight_max", float64(s.MaxRangesInFlight), labels...)
	e.Counter("damaris_gateway_forwards_total", float64(s.Forwards), labels...)
	e.Counter("damaris_gateway_redirects_total", float64(s.Redirects), labels...)
	e.Gauge("damaris_gateway_part_hit_rate", s.PartHitRate(), labels...)
	e.Gauge("damaris_gateway_toc_hit_rate", s.TOCHitRate(), labels...)
	e.Summary("damaris_gateway_fetch_seconds", s.FetchLatency, labels...)
}

// Gateway serves read traffic for one backend. Safe for concurrent use; it
// holds no per-request state and no lock across a backend fetch.
type Gateway struct {
	cfg     Config
	backend store.Backend
	stater  store.ObjectStater // nil when the backend can't stat objects
	parts   *partLRU
	sem     chan struct{} // bounds concurrent backend part fetches
	obs     *obs.Plane    // never nil; New defaults a private plane

	mu       sync.Mutex
	tocs     map[string]*tocEntry
	tocOrder *list.List // front = most recent; values are *tocEntry

	flightMu sync.Mutex
	inflight map[string]*partFetch

	met struct {
		sync.Mutex
		requests         int64
		tocHits          int64
		tocMisses        int64
		tocRevalidations int64
		tocInvalidations int64
		tocEvictions     int64
		backendGets      int64
		fetchBytes       int64
		bytesServed      int64
		fetchLat         stats.Accumulator
		rangesInFlight   int64
		maxRanges        int64
		forwards         int64
		redirects        int64
	}
}

// New builds a gateway over cfg.Backend.
func New(cfg Config) (*Gateway, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("gateway: Config.Backend is required")
	}
	if cfg.PartCacheBytes < 0 || cfg.FetchWorkers < 0 || cfg.TOCEntries < 0 {
		return nil, fmt.Errorf("gateway: negative cache or worker bound")
	}
	if cfg.PartCacheBytes == 0 {
		cfg.PartCacheBytes = DefaultPartCacheBytes
	}
	if cfg.FetchWorkers == 0 {
		cfg.FetchWorkers = DefaultFetchWorkers
	}
	if cfg.TOCEntries == 0 {
		cfg.TOCEntries = DefaultTOCEntries
	}
	if len(cfg.Peers) > 0 && (cfg.Self < 0 || cfg.Self >= len(cfg.Peers)) {
		return nil, fmt.Errorf("gateway: self index %d outside peer list of %d", cfg.Self, len(cfg.Peers))
	}
	g := &Gateway{
		cfg:      cfg,
		backend:  cfg.Backend,
		parts:    newPartLRU(cfg.PartCacheBytes),
		sem:      make(chan struct{}, cfg.FetchWorkers),
		tocs:     make(map[string]*tocEntry),
		tocOrder: list.New(),
		inflight: make(map[string]*partFetch),
	}
	g.stater, _ = cfg.Backend.(store.ObjectStater)
	g.obs = cfg.Obs
	if g.obs == nil {
		g.obs = obs.NewPlane(0)
	}
	// The live scrape reads the same Stats snapshot /v1/stats serves; the
	// backend's metrics ride along when it exposes them.
	g.obs.Registry().Collect(func(e *obs.Emitter) {
		g.Stats().Emit(e)
		g.backend.Stats().Emit(e)
	})
	if probe := cfg.ReadyProbe; probe != "" {
		g.obs.AddReadiness("backend", func() error {
			if _, err := g.backend.Stat(probe); err != nil {
				return fmt.Errorf("probe object %q: %w", probe, err)
			}
			return nil
		})
	}
	// With a replica set configured, the fleet federator merges every
	// replica's metrics behind /fleet/metrics: self is read in-process, the
	// peers are scraped over their /metrics.json. A standalone gateway
	// federates just itself, so the fleet routes always answer.
	if plane := g.obs; plane.Federator() == nil {
		fed := obs.NewFederator()
		if len(cfg.Peers) > 1 {
			for i, peer := range cfg.Peers {
				if i == cfg.Self {
					fed.AddRegistry(fmt.Sprint(i), plane.Registry())
				} else {
					fed.AddURL(fmt.Sprint(i), peer)
				}
			}
		} else {
			fed.AddRegistry(fmt.Sprint(cfg.Self), plane.Registry())
		}
		plane.SetFederator(fed)
	}
	return g, nil
}

// Obs returns the gateway's telemetry plane (the configured one, or the
// private plane New built).
func (g *Gateway) Obs() *obs.Plane { return g.obs }

// tocEntry is one cached decoded object. ready gates waiters while the
// first request builds the entry; err entries are evicted immediately so
// the next request retries.
type tocEntry struct {
	object string
	el     *list.Element
	sig    store.ObjectStat
	hasSig bool

	ready  chan struct{}
	err    error
	m      *store.Manifest
	ra     *rangeReader
	reader *dsf.Reader
}

// partFetch is one in-flight backend fetch other requests for the same
// digest wait on instead of fetching again.
type partFetch struct {
	done chan struct{}
	data []byte
	err  error
}

// Objects lists the committed objects of the backend.
func (g *Gateway) Objects() ([]store.ObjectInfo, error) { return g.backend.Objects() }

// open returns the cached decoded object, building or revalidating the
// entry as needed.
func (g *Gateway) open(object string) (*tocEntry, error) {
	for {
		g.mu.Lock()
		e, ok := g.tocs[object]
		if ok {
			g.tocOrder.MoveToFront(e.el)
			g.mu.Unlock()
			<-e.ready
			if e.err != nil {
				// The builder already evicted it; retry builds afresh.
				continue
			}
			if stale := g.revalidate(e); stale {
				continue
			}
			g.met.Lock()
			g.met.tocHits++
			g.met.Unlock()
			return e, nil
		}
		e = &tocEntry{object: object, ready: make(chan struct{})}
		e.el = g.tocOrder.PushFront(e)
		g.tocs[object] = e
		for len(g.tocs) > g.cfg.TOCEntries {
			back := g.tocOrder.Back()
			old := back.Value.(*tocEntry)
			g.tocOrder.Remove(back)
			delete(g.tocs, old.object)
			g.met.Lock()
			g.met.tocEvictions++
			g.met.Unlock()
		}
		g.mu.Unlock()

		g.build(e)
		if e.err != nil {
			g.evict(e)
			close(e.ready)
			return nil, e.err
		}
		close(e.ready)
		g.met.Lock()
		g.met.tocMisses++
		g.met.Unlock()
		return e, nil
	}
}

// revalidate probes the entry's signature; on mismatch the entry is evicted
// and true is returned so the caller rebuilds.
func (g *Gateway) revalidate(e *tocEntry) bool {
	if g.stater == nil || !e.hasSig {
		return false
	}
	g.met.Lock()
	g.met.tocRevalidations++
	g.met.Unlock()
	sig, err := g.stater.StatObject(e.object)
	if err == nil && sig == e.sig {
		return false
	}
	g.met.Lock()
	g.met.tocInvalidations++
	g.met.Unlock()
	g.evict(e)
	return true
}

// evict removes the entry from the cache if it is still the resident one.
func (g *Gateway) evict(e *tocEntry) {
	g.mu.Lock()
	if cur, ok := g.tocs[e.object]; ok && cur == e {
		g.tocOrder.Remove(e.el)
		delete(g.tocs, e.object)
	}
	g.mu.Unlock()
}

// tocSource is what build opens an object's DSF stream through. The header,
// footer and TOC are exact ranged reads of the store (ReaderAt): the decoded
// TOC is what gets cached, so pulling its raw parts through the part cache
// as well would only evict chunk data. Chunk payloads are views of the part
// cache (Viewer). dsf.Reader reads a Viewer source through ReadAt only while
// it loads, so the store reader closes when build returns.
type tocSource struct {
	io.ReaderAt
	dsf.Viewer
}

// build decodes the object's manifest and TOC into the entry.
func (g *Gateway) build(e *tocEntry) {
	if g.stater != nil {
		if sig, err := g.stater.StatObject(e.object); err == nil {
			e.sig, e.hasSig = sig, true
		}
	}
	m, err := g.backend.Manifest(e.object)
	if err != nil {
		e.err = err
		return
	}
	or, err := g.backend.Open(e.object)
	if err != nil {
		e.err = err
		return
	}
	defer or.Close()
	if or.Size() != m.Size {
		e.err = fmt.Errorf("gateway: object %q: reader is %d bytes, manifest says %d", e.object, or.Size(), m.Size)
		return
	}
	ra := newRangeReader(g, m)
	r, err := dsf.OpenReaderAt(tocSource{or, ra}, m.Size)
	if err != nil {
		e.err = fmt.Errorf("gateway: object %q: %w", e.object, err)
		return
	}
	e.m, e.ra, e.reader = m, ra, r
}

// Reader returns the cached DSF reader of one object. The reader is shared
// across requests — its accessors return copies, so handlers cannot corrupt
// it (see dsf.Reader.Chunks).
func (g *Gateway) Reader(object string) (*dsf.Reader, error) {
	e, err := g.open(object)
	if err != nil {
		return nil, err
	}
	return e.reader, nil
}

// Manifest returns the cached manifest of one object.
func (g *Gateway) Manifest(object string) (*store.Manifest, error) {
	e, err := g.open(object)
	if err != nil {
		return nil, err
	}
	return e.m, nil
}

// ErrRange is what the range reads wrap when the range asked for is negative
// or starts beyond the object's end.
var ErrRange = errors.New("gateway: range not satisfiable")

// rangeSegments resolves length raw bytes of the object's DSF stream
// starting at offset (clamped to the object's end) to read-only slices, one
// per covered part, in stream order.
func (g *Gateway) rangeSegments(object string, off, length int64) ([][]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("%w: negative %d+%d", ErrRange, off, length)
	}
	e, err := g.open(object)
	if err != nil {
		return nil, err
	}
	if off > e.m.Size {
		return nil, fmt.Errorf("%w: start %d beyond object size %d", ErrRange, off, e.m.Size)
	}
	if length > e.m.Size-off {
		length = e.m.Size - off
	}
	segs, err := e.ra.segments(off, length)
	if err != nil {
		return nil, err
	}
	g.addServed(length)
	return segs, nil
}

// ReadRange returns length raw bytes of the object's DSF stream starting at
// offset, fanning the covered parts across the fetch pool. The result is
// read-only: a range inside one part is a view of the cached part, shared
// with every other reader of it.
func (g *Gateway) ReadRange(object string, off, length int64) ([]byte, error) {
	segs, err := g.rangeSegments(object, off, length)
	if err != nil {
		return nil, err
	}
	return join(segs), nil
}

// ReadChunk returns the decoded payload and metadata of chunk index i. The
// payload is read-only: an uncompressed chunk inside one part is a view of
// the cached part, shared with every other reader of it.
func (g *Gateway) ReadChunk(object string, i int) (dsf.ChunkMeta, []byte, error) {
	e, err := g.open(object)
	if err != nil {
		return dsf.ChunkMeta{}, nil, err
	}
	meta, err := e.reader.Chunk(i)
	if err != nil {
		return dsf.ChunkMeta{}, nil, err
	}
	data, err := e.reader.ReadChunk(i)
	if err != nil {
		return dsf.ChunkMeta{}, nil, err
	}
	g.addServed(int64(len(data)))
	return meta, data, nil
}

// Field assembles one variable's iteration of one object into a dense
// field, straight from the store — no local files involved.
func (g *Gateway) Field(object, name string, iteration int64) (*viz.Field, error) {
	e, err := g.open(object)
	if err != nil {
		return nil, err
	}
	f, err := viz.FromReader(e.reader, name, iteration)
	if err != nil {
		return nil, err
	}
	g.addServed(4 * int64(len(f.Data)))
	return f, nil
}

// Variables lists the distinct variable names across all committed objects.
func (g *Gateway) Variables() ([]string, error) {
	seen := map[string]bool{}
	if err := g.eachObject(func(r *dsf.Reader) {
		for _, m := range r.Chunks() {
			seen[m.Name] = true
		}
	}); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Iterations lists the distinct iterations across all committed objects.
func (g *Gateway) Iterations() ([]int64, error) {
	seen := map[int64]bool{}
	if err := g.eachObject(func(r *dsf.Reader) {
		for _, m := range r.Chunks() {
			seen[m.Iteration] = true
		}
	}); err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (g *Gateway) eachObject(fn func(r *dsf.Reader)) error {
	objs, err := g.backend.Objects()
	if err != nil {
		return err
	}
	for _, o := range objs {
		r, err := g.Reader(o.Name)
		if err != nil {
			return err
		}
		fn(r)
	}
	return nil
}

// fetchPart returns one part's bytes through the LRU, with per-digest
// singleflight so concurrent misses of the same content fetch once.
func (g *Gateway) fetchPart(part store.Part) ([]byte, error) {
	key := store.PartCacheKey(part)
	if b, ok := g.parts.GetPart(key); ok {
		return b, nil
	}
	g.flightMu.Lock()
	if f, ok := g.inflight[key]; ok {
		g.flightMu.Unlock()
		<-f.done
		return f.data, f.err
	}
	// The fetch this call missed may have finished between the lookup above
	// and the lock: it adds the part before it leaves inflight, so look again.
	if b, ok := g.parts.peek(key); ok {
		g.flightMu.Unlock()
		return b, nil
	}
	f := &partFetch{done: make(chan struct{})}
	g.inflight[key] = f
	g.flightMu.Unlock()

	g.sem <- struct{}{} // bounded fetch pool
	start := time.Now()
	b, err := g.backend.Get(part.Blob)
	elapsed := time.Since(start).Seconds()
	<-g.sem
	if err == nil && int64(len(b)) != part.Size {
		err = fmt.Errorf("gateway: part %q is %d bytes, manifest says %d", part.Blob, len(b), part.Size)
	}
	g.met.Lock()
	g.met.backendGets++
	g.met.fetchLat.Add(elapsed)
	if err == nil {
		g.met.fetchBytes += int64(len(b))
	}
	g.met.Unlock()
	if err == nil {
		g.parts.AddPart(key, b)
		f.data = b
	}
	f.err = err
	g.flightMu.Lock()
	delete(g.inflight, key)
	g.flightMu.Unlock()
	close(f.done)
	return f.data, f.err
}

// readDirect reads n bytes at off of an object through the store's own
// exact-range reader, past the part cache.
func (g *Gateway) readDirect(object string, off, n int64) ([]byte, error) {
	g.sem <- struct{}{} // same bounded pool as the part fetches
	defer func() { <-g.sem }()
	start := time.Now()
	or, err := g.backend.Open(object)
	if err != nil {
		return nil, err
	}
	defer or.Close()
	buf := make([]byte, n)
	_, err = or.ReadAt(buf, off)
	g.met.Lock()
	g.met.backendGets++
	g.met.fetchLat.Add(time.Since(start).Seconds())
	if err == nil {
		g.met.fetchBytes += n
	}
	g.met.Unlock()
	if err != nil {
		return nil, fmt.Errorf("gateway: object %q: read %d+%d: %w", object, off, n, err)
	}
	return buf, nil
}

func (g *Gateway) addServed(n int64) {
	g.met.Lock()
	g.met.bytesServed += n
	g.met.Unlock()
}

func (g *Gateway) rangeStart() {
	g.met.Lock()
	g.met.rangesInFlight++
	if g.met.rangesInFlight > g.met.maxRanges {
		g.met.maxRanges = g.met.rangesInFlight
	}
	g.met.Unlock()
}

func (g *Gateway) rangeEnd() {
	g.met.Lock()
	g.met.rangesInFlight--
	g.met.Unlock()
}

// Stats snapshots the gateway's metrics.
func (g *Gateway) Stats() Stats {
	pHits, pMisses, pEvict, pBytes, pParts := g.parts.snapshot()
	g.met.Lock()
	defer g.met.Unlock()
	return Stats{
		Requests:          g.met.requests,
		TOCHits:           g.met.tocHits,
		TOCMisses:         g.met.tocMisses,
		TOCRevalidations:  g.met.tocRevalidations,
		TOCInvalidations:  g.met.tocInvalidations,
		TOCEvictions:      g.met.tocEvictions,
		PartHits:          pHits,
		PartMisses:        pMisses,
		PartEvictions:     pEvict,
		PartCacheBytes:    pBytes,
		PartCacheParts:    pParts,
		BackendGets:       g.met.backendGets,
		FetchBytes:        g.met.fetchBytes,
		BytesServed:       g.met.bytesServed,
		FetchLatency:      g.met.fetchLat.Summary(),
		RangesInFlight:    g.met.rangesInFlight,
		MaxRangesInFlight: g.met.maxRanges,
		Forwards:          g.met.forwards,
		Redirects:         g.met.redirects,
	}
}

// rangeReader resolves byte ranges of one object through its manifest to
// parts: missing parts fan out across the bounded fetch pool in parallel
// and land in the shared digest-keyed LRU, and what callers get back are
// sub-slices of those cached parts, not copies. Cached parts are immutable
// and owned by the garbage collector — eviction drops the cache's reference
// and never reuses the memory — so a slice stays valid for as long as its
// holder keeps it.
type rangeReader struct {
	g       *Gateway
	m       *store.Manifest
	offsets []int64 // offsets[i] is part i's start; last entry is the size
}

func newRangeReader(g *Gateway, m *store.Manifest) *rangeReader {
	r := &rangeReader{g: g, m: m, offsets: make([]int64, len(m.Parts)+1)}
	var off int64
	for i, p := range m.Parts {
		r.offsets[i] = off
		off += p.Size
	}
	r.offsets[len(m.Parts)] = off
	return r
}

func (r *rangeReader) partAt(off int64) int {
	return sort.Search(len(r.m.Parts), func(i int) bool { return r.offsets[i+1] > off })
}

// segments is the one part-resolution routine every read goes through: it
// returns the object's bytes [off, off+n) as read-only slices, one per
// covered part, in stream order. Each has cap == len, so an append by a
// caller can never reach the rest of the part.
func (r *rangeReader) segments(off, n int64) ([][]byte, error) {
	if off < 0 || n < 0 || n > r.m.Size-off {
		return nil, fmt.Errorf("gateway: range %d+%d outside object of %d bytes", off, n, r.m.Size)
	}
	if n == 0 {
		return nil, nil
	}
	r.g.rangeStart()
	defer r.g.rangeEnd()

	first, last := r.partAt(off), r.partAt(off+n-1)
	segs := make([][]byte, last-first+1)
	if first == last {
		var err error
		segs[0], err = r.segment(first, off, n)
		return segs, err
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := first; i <= last; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seg, err := r.segment(i, off, n)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			segs[i-first] = seg
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return segs, nil
}

// segment returns the bytes of part i that the range [off, off+n) covers.
func (r *rangeReader) segment(i int, off, n int64) ([]byte, error) {
	part := r.m.Parts[i]
	lo, hi := int64(0), part.Size // within the part
	if off > r.offsets[i] {
		lo = off - r.offsets[i]
	}
	if end := off + n; end < r.offsets[i+1] {
		hi = end - r.offsets[i]
	}
	if !r.g.parts.admits(part.Size) {
		// The cache will never hold this part (a file:// object is one part
		// however large), so fetching it whole would repeat on every read.
		return r.g.readDirect(r.m.Object, r.offsets[i]+lo, hi-lo)
	}
	b, err := r.g.fetchPart(part)
	if err != nil {
		return nil, err
	}
	return b[lo:hi:hi], nil
}

// View implements dsf.Viewer: a range inside one part is lent, one that
// straddles parts is assembled.
func (r *rangeReader) View(off, n int64) ([]byte, error) {
	segs, err := r.segments(off, n)
	if err != nil {
		return nil, err
	}
	return join(segs), nil
}

// segsLen is the number of bytes the segments hold together.
func segsLen(segs [][]byte) (n int) {
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// join returns the one segment as it is and assembles several.
func join(segs [][]byte) []byte {
	if len(segs) == 1 {
		return segs[0]
	}
	buf := make([]byte, 0, segsLen(segs))
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return buf
}
