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
//   - A bounded LRU cache of part ranges keyed by content digest
//     (store.PartCacheKey) plus the range within the part. Content
//     addressing makes the key global: one cached range serves every object
//     that references the same bytes, so dedupe on the write path becomes
//     cache sharing on the read path. A miss fetches the range asked for,
//     not the part around it, from the part's blob. A chunk across parts is
//     one cached range of their span. Reads are served as read-only views of
//     the cached ranges, not copies.
//   - Parallel range reads: a range spanning several parts fans its missing
//     pieces across a bounded fetcher pool (with per-range singleflight)
//     instead of walking them serially.
//
// Gateways are stateless by construction — every byte they serve is
// re-derivable from the backend — so any number of independent gateways
// can serve one store root with no coordination. See docs/gateway.md.
package gateway

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
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

// smallPart is the part size up to which a miss Gets the whole part. It
// saves nothing — a DSF object's last part is the end of its last chunk and
// the TOC, which is never read from the part cache — but that Get is the
// last one read_beside_write makes, and bench/smoke_test.go requires one.
const smallPart = 64 << 10

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

	// Obs is the telemetry plane the gateway registers its stats on and
	// serves over its mux (/metrics, /trace, /epochs, /readyz — not pprof,
	// which stays off the client-facing mux). Nil means the gateway builds a
	// private plane, so the read plane always exposes the same metrics
	// exposition as the write plane.
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
	// Requests counts HTTP requests accepted.
	Requests int64
	// TOCHits/TOCMisses count manifest/TOC cache lookups; TOCRevalidations
	// the cheap signature probes on hits, TOCInvalidations the rebuilds a
	// changed signature forced, TOCEvictions the LRU pressure.
	TOCHits, TOCMisses int64
	TOCRevalidations   int64
	TOCInvalidations   int64
	TOCEvictions       int64
	// PartHits/PartMisses/PartEvictions count LRU part-cache traffic, one
	// lookup per part a raw range covers and one per chunk, which a chunk
	// across parts makes for its span; PartCacheBytes/PartCacheParts gauge its
	// occupancy, the latter in cached ranges (a whole part or a span is one).
	PartHits, PartMisses, PartEvictions int64
	PartCacheBytes, PartCacheParts      int64
	// BackendGets counts every fetch a part-cache miss sends to the backend,
	// one per piece of a part fetched, whether a Get of a small part or an
	// exact ranged read of a part's blob — the figure that must stay flat on a
	// warm cache. TOC loads are not part fetches; the store's own
	// Gets/GetBytes count them.
	BackendGets int64
	// FetchBytes is the part volume those fetches moved; BytesServed the
	// decoded volume returned to clients.
	FetchBytes  int64
	BytesServed int64
	// FetchLatency summarizes per-part backend fetch seconds.
	FetchLatency stats.Summary
	// RangesInFlight/MaxRangesInFlight gauge concurrent range reads.
	RangesInFlight, MaxRangesInFlight int64
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
// damaris_gateway_* families: every field, and the two hit rates.
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
	inflight map[partRange]*partFetch

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
		fetchLat         obs.Histogram
		rangesInFlight   int64
		maxRanges        int64
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
	g := &Gateway{
		cfg:      cfg,
		backend:  cfg.Backend,
		parts:    newPartLRU(cfg.PartCacheBytes),
		sem:      make(chan struct{}, cfg.FetchWorkers),
		tocs:     make(map[string]*tocEntry),
		tocOrder: list.New(),
		inflight: make(map[partRange]*partFetch),
	}
	g.stater, _ = cfg.Backend.(store.ObjectStater)
	g.obs = cfg.Obs
	if g.obs == nil {
		// Nothing in the gateway records a span: its private plane keeps the
		// smallest trace ring, and /trace and /epochs answer empty.
		g.obs = obs.NewPlane(1)
	}
	// The live scrape reads the Stats snapshot; the backend's metrics ride
	// along.
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
	return g, nil
}

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
// range wait on instead of fetching again.
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
	ra := newRangeReader(g, m, e)
	r, err := dsf.OpenReaderAt(tocSource{or, ra}, m.Size)
	if err != nil {
		e.err = fmt.Errorf("gateway: object %q: %w", e.object, err)
		return
	}
	e.m, e.ra, e.reader = m, ra, r
}

// Reader returns the cached DSF reader of one object. The reader is shared
// across requests — its accessors decode fresh metadata from the TOC on each
// call, so handlers cannot corrupt it (see dsf.Reader.Chunks).
func (g *Gateway) Reader(object string) (*dsf.Reader, error) {
	e, err := g.open(object)
	if err != nil {
		return nil, err
	}
	return e.reader, nil
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

// eachObject calls fn with the reader of every committed object. An object
// deleted since the listing is no longer an object and is skipped.
func (g *Gateway) eachObject(fn func(r *dsf.Reader)) error {
	objs, err := g.backend.Objects()
	if err != nil {
		return err
	}
	for _, o := range objs {
		r, err := g.Reader(o.Name)
		if errors.Is(err, store.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		fn(r)
	}
	return nil
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
	}
}

// rangeReader resolves byte ranges of one object through its manifest to
// cached ranges of parts (or, for a chunk across parts, of a span), fetching
// the missing pieces across the bounded pool in parallel. Callers get
// sub-slices of the cached ranges, not copies, valid for as long as they
// hold them: eviction never reuses memory.
type rangeReader struct {
	g       *Gateway
	m       *store.Manifest
	e       *tocEntry // whose signature m was read under
	offsets []int64   // offsets[i] is part i's start; last entry is the size
	keys    []string  // keys[i] is part i's cache key
}

func newRangeReader(g *Gateway, m *store.Manifest, e *tocEntry) *rangeReader {
	r := &rangeReader{g: g, m: m, e: e, offsets: make([]int64, len(m.Parts)+1), keys: make([]string, len(m.Parts))}
	var off int64
	for i, p := range m.Parts {
		r.offsets[i] = off
		off += p.Size
		r.keys[i] = store.PartCacheKey(p)
		if p.SHA256 == "" && e.hasSig { // a name, unlike a digest, outlives a rewrite
			r.keys[i] += fmt.Sprintf("@%d/%d", e.sig.Size, e.sig.ModTime.UnixNano())
		}
	}
	r.offsets[len(m.Parts)] = off
	return r
}

func (r *rangeReader) partAt(off int64) int {
	return sort.Search(len(r.m.Parts), func(i int) bool { return r.offsets[i+1] > off })
}

// check refuses a range outside the object.
func (r *rangeReader) check(off, n int64) error {
	if off < 0 || n < 0 || n > r.m.Size-off {
		return fmt.Errorf("gateway: range %d+%d outside object of %d bytes", off, n, r.m.Size)
	}
	return nil
}

// clip returns the bytes of part i that [off, off+n) covers, within the part.
func (r *rangeReader) clip(i int, off, n int64) (lo, hi int64) {
	return max(off-r.offsets[i], 0), min(off+n, r.offsets[i+1]) - r.offsets[i]
}

// each runs fn for parts first to last, concurrently when there are several,
// and returns the first part's error.
func each(first, last int, fn func(i int) error) error {
	if first == last {
		return fn(first)
	}
	errs := make([]error, last-first+1)
	var wg sync.WaitGroup
	for i := first; i <= last; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i-first] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// segments returns the object's bytes [off, off+n) as read-only slices, one
// per covered part, in stream order — what the raw-range reads serve. Each
// has cap == len, so an append by a caller can never reach the rest of the
// part.
func (r *rangeReader) segments(off, n int64) ([][]byte, error) {
	if err := r.check(off, n); err != nil || n == 0 {
		return nil, err
	}
	r.g.rangeStart()
	defer r.g.rangeEnd()
	first, last := r.partAt(off), r.partAt(off+n-1)
	segs := make([][]byte, last-first+1)
	err := each(first, last, func(i int) (err error) {
		segs[i-first], err = r.segment(i, off, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	return segs, nil
}

// View implements dsf.Viewer, the chunk path. A range inside one part is lent
// as a view of the part's cached range. One that straddles parts is lent as a
// view of one cached frame, the span: its key is the covered parts' keys
// joined in order ("+" never occurs in a digest key, and a part named by its
// object is the object's only one), and its [lo, hi) is in the coordinates
// of their concatenation, so a span is as global as its parts' digests.
func (r *rangeReader) View(off, n int64) ([]byte, error) {
	if err := r.check(off, n); err != nil || n == 0 {
		return nil, err
	}
	r.g.rangeStart()
	defer r.g.rangeEnd()
	first, last := r.partAt(off), r.partAt(off+n-1)
	if first == last {
		return r.segment(first, off, n)
	}
	lo := off - r.offsets[first]
	span := partRange{strings.Join(r.keys[first:last+1], "+"), lo, lo + n}
	if b, ok := r.g.parts.get(span.key, span.lo, span.hi, true); ok {
		return b, nil
	}
	return r.g.once(span, span.lo, span.hi, func() ([]byte, error) { return r.fill(first, last, off, n) })
}

// segment returns the bytes of part i that [off, off+n) covers, through the
// range cache.
func (r *rangeReader) segment(i int, off, n int64) ([]byte, error) {
	lo, hi := r.clip(i, off, n)
	if b, ok := r.g.parts.get(r.keys[i], lo, hi, true); ok {
		return b, nil
	}
	return r.miss(i, lo, hi)
}

// miss fetches the bytes [lo, hi) of part i, or the whole part when it is
// small, and caches them.
func (r *rangeReader) miss(i int, lo, hi int64) ([]byte, error) {
	if size := r.m.Parts[i].Size; size <= smallPart {
		return r.g.once(partRange{r.keys[i], 0, size}, lo, hi, func() ([]byte, error) { return r.fetch(i, 0, nil) })
	}
	return r.g.once(partRange{r.keys[i], lo, hi}, lo, hi, func() ([]byte, error) { return r.fetch(i, lo, make([]byte, hi-lo)) })
}

// fill assembles the bytes [off, off+n) of parts first to last into one
// frame. A piece a cached range of its part holds is copied from it, and so
// is a piece of a small part, after the whole part is fetched and cached as
// a segment miss would; any other piece is read from its part's blob
// straight into the frame.
func (r *rangeReader) fill(first, last int, off, n int64) ([]byte, error) {
	frame := make([]byte, n)
	err := each(first, last, func(i int) error {
		lo, hi := r.clip(i, off, n)
		dst := frame[r.offsets[i]+lo-off:][:hi-lo]
		if b, ok := r.g.parts.get(r.keys[i], lo, hi, false); ok {
			copy(dst, b)
			return nil
		}
		if r.m.Parts[i].Size > smallPart {
			_, err := r.fetch(i, lo, dst)
			return err
		}
		b, err := r.miss(i, lo, hi)
		copy(dst, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// once runs fetch for the range want and caches what it returns, unless a
// fetch of want is already in flight, which it waits on instead; either way
// it returns the bytes [lo, hi) of want's part (or span).
func (g *Gateway) once(want partRange, lo, hi int64, fetch func() ([]byte, error)) ([]byte, error) {
	g.flightMu.Lock()
	f, joined := g.inflight[want]
	if !joined {
		// The fetch the caller's lookup missed may have finished between that
		// lookup and the lock: it adds its range before it leaves inflight, so
		// look again.
		if b, ok := g.parts.get(want.key, lo, hi, false); ok {
			g.flightMu.Unlock()
			return b, nil
		}
		f = &partFetch{done: make(chan struct{})}
		g.inflight[want] = f
	}
	g.flightMu.Unlock()
	if joined {
		<-f.done
	} else {
		f.data, f.err = fetch()
		if f.err == nil {
			g.parts.add(want.key, want.lo, want.hi, f.data)
		}
		g.flightMu.Lock()
		delete(g.inflight, want)
		g.flightMu.Unlock()
		close(f.done)
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.data[lo-want.lo : hi-want.lo : hi-want.lo], nil
}

// fetch reads part i's bytes from lo into p with one ranged read of its
// blob, or, when p is nil, Gets the whole blob, on the bounded fetch pool. A
// part read by its digest cannot hold another object's bytes; one named by
// its object (file://) outlives a rewrite of it, so a fetch of such a part
// is followed by a StatObject, and a signature other than the one m was read
// under fails the fetch: nothing read across a rewrite is cached.
func (r *rangeReader) fetch(i int, lo int64, p []byte) ([]byte, error) {
	g, part := r.g, r.m.Parts[i]
	g.sem <- struct{}{}
	start := time.Now()
	var err error
	if p != nil {
		_, err = g.backend.ReadPartAt(part, p, lo)
	} else if p, err = g.backend.Get(part.Blob); err == nil && int64(len(p)) != part.Size {
		err = fmt.Errorf("gateway: part %q is %d bytes, manifest says %d", part.Blob, len(p), part.Size)
	}
	elapsed := time.Since(start).Seconds()
	<-g.sem
	g.met.Lock()
	g.met.backendGets++
	g.met.fetchLat.Observe(elapsed)
	if err == nil {
		g.met.fetchBytes += int64(len(p))
	}
	g.met.Unlock()
	if err == nil && part.SHA256 == "" && r.e.hasSig { // sig was taken before m was read
		if sig, serr := g.stater.StatObject(r.m.Object); serr != nil || sig != r.e.sig {
			return nil, fmt.Errorf("gateway: object %q changed while part %d was read", r.m.Object, i)
		}
	}
	return p, err
}

// segsLen is the number of bytes the segments hold together.
func segsLen(segs [][]byte) (n int) {
	for _, s := range segs {
		n += len(s)
	}
	return n
}
