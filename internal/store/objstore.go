package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ObjStore is the "obj" backend: a content-addressed object store in the
// shape of S3-style multipart upload, backed by a local directory (the
// directory stands in for the remote service; the protocol is the real
// contribution and is what the injectable Fault exercises).
//
// An object's byte stream is split into fixed-size parts. Each part is
// stored as the blob "cas/sha256/<hex digest>", so identical content across
// iterations, ranks or retries lands on the same blob: re-uploads dedupe
// (the writer stats the blob first) and retries are idempotent. Parts
// upload through a bounded parallel worker pool shared by every writer of
// the backend instance — many small in-flight puts overlap instead of one
// big serialized file append.
//
// Visibility is manifest-last: parts are invisible until a manifest naming
// them is committed (written to its own temp file, fsynced, renamed). A
// crash at any earlier point leaves only unreferenced CAS blobs and torn
// temp files — no reader can observe a partial object, and the retry skips
// every part that already made it.
//
// Directory layout under the root — two trees sharing one temp area:
//
//	blobs/<name>            the blob plane (parts live under blobs/cas/sha256/)
//	manifests/<object>.json committed manifests (atomic rename)
//	tmp/                    in-flight temporaries, ignored by all reads
type ObjStore struct {
	partSize         int64
	putAttempts      int
	blobs, manifests tree
	metrics          metrics
	lastParts        atomic.Int64 // part count of the last object committed: where the next one's list starts

	// sem bounds the parts concurrently uploading (or filled awaiting a
	// worker slot) across all of this backend's ObjectWriters.
	sem chan struct{}

	// jitterMu guards the jitter source for retry backoff.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// NewObjStore opens (creating if needed) an object store rooted at dir.
func NewObjStore(dir string, opts Options) (*ObjStore, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if dir == "" {
		return nil, fmt.Errorf("store: object backend needs a root directory")
	}
	var dirs [3]*os.File
	for i, name := range []string{"blobs", "manifests", "tmp"} {
		d, err := openDir(filepath.Join(dir, name))
		if err != nil {
			for _, d := range dirs[:i] {
				d.Close()
			}
			return nil, fmt.Errorf("store: object backend: %w", err)
		}
		dirs[i] = d
	}
	return &ObjStore{
		partSize:    opts.PartSize,
		putAttempts: opts.PutAttempts,
		blobs:       tree{dir: dirs[0], tmp: dirs[2], tmpPrefix: "t-", fault: opts.Fault},
		manifests:   tree{dir: dirs[1], suffix: ".json", tmp: dirs[2], tmpPrefix: "t-", fault: opts.Fault},
		metrics:     metrics{Stats: Stats{Scheme: "obj"}},
		sem:         make(chan struct{}, opts.PutWorkers),
		// Jitter only spreads retry backoff in time; a fixed seed keeps runs
		// reproducible and output bytes never depend on it.
		jitter: rand.New(rand.NewSource(1)),
	}, nil
}

// objPart is one part on its way to a blob: runs in stream order, each
// either bytes a WritePinned caller keeps or a copy of what one Write was
// handed, sized to it. The store keeps no bytes of a part once its upload
// is done; partPool recycles only the run list, where a sync.Pool's
// occasional miss costs a few hundred bytes, not a buffer.
type objPart struct {
	runs [][]byte
	size int64
}

var partPool = sync.Pool{New: func() any { return &objPart{runs: make([][]byte, 0, 8)} }}

// digest hashes the runs in order.
func (pt *objPart) digest() (sum [sha256.Size]byte) {
	h := sha256.New()
	for _, r := range pt.runs {
		h.Write(r)
	}
	return [sha256.Size]byte(h.Sum(sum[:0]))
}

// casPrefix is where the blob plane keeps content-addressed parts.
const casPrefix = "cas/sha256/"

// casPart describes a part by its digest: the blob name is casPrefix and
// the hex digest, encoded once, and SHA256 is a substring of it.
func casPart(sum [sha256.Size]byte, size int64) Part {
	var b [len(casPrefix) + 2*sha256.Size]byte
	hex.Encode(b[copy(b[:], casPrefix):], sum[:])
	blob := string(b[:])
	return Part{Blob: blob, Size: size, SHA256: blob[len(casPrefix):]}
}

// ReadPartAt fills p from offset off of a manifest part's blob. A blob whose
// length is not the manifest's is an error, never bytes: the same check a
// whole-part Get gets from its caller. It opens the blob the way Get does,
// so the OpGet fault hook guards ranged reads too.
func (s *ObjStore) ReadPartAt(part Part, p []byte, off int64) (int, error) {
	start := time.Now()
	if err := s.blobs.readPart(part, p, off); err != nil {
		return 0, s.metrics.failed(err)
	}
	s.metrics.get(time.Since(start).Seconds(), int64(len(p)))
	return len(p), nil
}

// Get reads a blob back.
func (s *ObjStore) Get(name string) ([]byte, error) {
	start := time.Now()
	b, err := s.blobs.read(name, nil)
	if err != nil {
		return nil, s.metrics.failed(err)
	}
	s.metrics.get(time.Since(start).Seconds(), int64(len(b)))
	return b, nil
}

// Stat reports a blob's size — the dedupe probe.
func (s *ObjStore) Stat(name string) (ObjectInfo, error) {
	st, err := s.blobs.stat(OpStat, name)
	if err != nil {
		return ObjectInfo{}, s.metrics.failed(err)
	}
	return ObjectInfo{Name: name, Size: st.Size}, nil
}

// Delete removes a blob. Deleting a part still referenced by a manifest
// breaks that object — garbage collection of unreferenced parts is GC's
// concern.
func (s *ObjStore) Delete(name string) error {
	if err := s.blobs.remove(name); err != nil {
		return s.metrics.failed(err)
	}
	s.metrics.inc(&s.metrics.Deletes)
	return nil
}

// Create starts a multipart object upload.
func (s *ObjStore) Create(object string) (ObjectWriter, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	return &objWriter{s: s, object: object}, nil
}

// objWriter fills partSize bytes at a time and hands full parts to the
// upload pool; Write blocks when putWorkers parts are already in flight, so
// the bytes it copies stay bounded at (putWorkers+1) parts no matter how
// large the object is. Pinned bytes are the caller's, not the writer's.
type objWriter struct {
	s      *ObjStore
	object string
	pt     *objPart // the part being filled, nil until bytes arrive
	size   int64
	done   bool
	wg     sync.WaitGroup
	// firstErr is the first part's terminal failure.
	firstErr atomic.Pointer[error]

	mu    sync.Mutex
	parts []Part // indexed by part number, filled as uploads finish
}

func (w *objWriter) Write(p []byte) (int, error) { return w.write(p, false) }

// WritePinned keeps p in the parts' runs: every put of them has returned by
// the time Commit or Abort does.
func (w *objWriter) WritePinned(p []byte) (int, error) { return w.write(p, true) }

func (w *objWriter) write(p []byte, pin bool) (int, error) {
	if w.done {
		return 0, fmt.Errorf("store: write on finished object %q", w.object)
	}
	if err := w.firstErr.Load(); err != nil {
		return 0, *err // fail fast: a part already failed terminally
	}
	written := len(p)
	for len(p) > 0 {
		if w.pt == nil {
			w.pt = partPool.Get().(*objPart)
		}
		n := min(int64(len(p)), w.s.partSize-w.pt.size)
		run := p[:n]
		if !pin {
			run = bytes.Clone(run)
		}
		w.pt.runs = append(w.pt.runs, run)
		p = p[n:]
		w.pt.size += n
		w.size += n
		if w.pt.size == w.s.partSize {
			w.dispatchPart()
		}
	}
	return written, nil
}

// dispatchPart hands the current part to the upload pool. It blocks on the
// pool semaphore — the multipart backpressure point.
func (w *objWriter) dispatchPart() {
	pt := w.pt
	w.mu.Lock()
	if w.parts == nil { // nil, not empty, until a part comes: a manifest's "parts": null
		w.parts = make([]Part, 0, w.s.lastParts.Load())
	}
	idx := len(w.parts)
	w.parts = append(w.parts, Part{}) // reserve slot idx, filled by the upload
	w.mu.Unlock()

	w.s.metrics.partStart()
	w.s.sem <- struct{}{} // acquire a pool slot (blocks when saturated)
	w.wg.Add(1)
	go func() {
		defer func() {
			<-w.s.sem
			w.s.metrics.partEnd()
			clear(pt.runs)
			pt.runs, pt.size = pt.runs[:0], 0
			partPool.Put(pt)
			w.wg.Done()
		}()
		part, err := w.s.uploadPart(pt)
		if err != nil {
			err := fmt.Errorf("store: object %q part %d: %w", w.object, idx, err) // a new variable: only a failure escapes
			w.firstErr.CompareAndSwap(nil, &err)
			return
		}
		w.mu.Lock()
		w.parts[idx] = part
		w.mu.Unlock()
	}()
	w.pt = nil
}

// Retry backoff bounds: capped exponential starting at the base, with full
// jitter over the upper half of each step. The cap keeps a long outage from
// growing one wait past a quarter second; the jitter keeps a burst of failed
// parts from retrying in lockstep against a target that just browned out.
const (
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffCap  = 250 * time.Millisecond
)

// backoffBeforeAttempt sleeps the capped-exponential, jittered backoff that
// precedes retry attempt (attempt ≥ 2) and records the wait in Stats.
func (s *ObjStore) backoffBeforeAttempt(attempt int) {
	d := retryBackoffCap
	if shift := uint(attempt - 2); shift < 8 {
		d = min(d, retryBackoffBase<<shift)
	}
	s.jitterMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.jitterMu.Unlock()
	d = d/2 + j
	s.metrics.backoff(d.Seconds())
	time.Sleep(d)
}

// uploadPart content-addresses one part and makes it durable: a part whose
// blob already exists is a dedupe hit (skip the upload entirely); otherwise
// put it, retrying transient failures with backoff, idempotent because the
// name is the content. A put is timed and counted, its failure too.
func (s *ObjStore) uploadPart(pt *objPart) (Part, error) {
	part := casPart(pt.digest(), pt.size)
	var lastErr error
	for attempt := 1; attempt <= s.putAttempts; attempt++ {
		if attempt > 1 {
			s.metrics.inc(&s.metrics.Retries)
			s.backoffBeforeAttempt(attempt)
		}
		// Every attempt begins with the dedupe probe: while an attempt
		// failed, another writer of the same content — in this instance or
		// another over the same root — may have landed the blob.
		if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
			s.dedupeHit(part)
			return part, nil
		}
		// The timer starts before the fault hook on purpose: injected
		// latency models the storage target, so it belongs in PutLatency.
		start := time.Now()
		if lastErr = s.blobs.put(OpPut, part.Blob, pt.runs...); lastErr == nil {
			s.metrics.put(time.Since(start).Seconds(), part.Size)
			return part, s.checkPut(pt, part)
		}
		s.metrics.failed(lastErr)
	}
	return Part{}, fmt.Errorf("upload failed after %d attempts: %w", s.putAttempts, lastErr)
}

// dedupeHit records a skipped upload and refreshes the existing blob's
// mtime. The refresh is load-bearing for online GC: its sweep keeps any
// unreferenced blob younger than the grace window, so a part an in-flight
// writer is about to reference must look *recently used*, not as old as
// its first upload — otherwise a sweep racing the dedupe-then-commit
// window could delete a part a just-committed manifest references.
func (s *ObjStore) dedupeHit(part Part) {
	now := time.Now()
	_ = os.Chtimes(s.blobs.path(part.Blob), now, now) // best-effort: worst case the blob just looks older
	s.metrics.dedupe(part.Size)
}

func (w *objWriter) Commit() (*Manifest, error) {
	if w.done {
		return nil, fmt.Errorf("store: object %q already finished", w.object)
	}
	w.done = true
	if w.pt != nil {
		w.dispatchPart()
	}
	w.wg.Wait()
	if err := w.firstErr.Load(); err != nil {
		return nil, *err
	}
	m := &Manifest{Object: w.object, Size: w.size, Parts: w.parts}
	if err := w.s.Commit(m); err != nil {
		return nil, err
	}
	w.s.lastParts.Store(int64(len(m.Parts)))
	return m, nil
}

func (w *objWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.pt = nil
	w.wg.Wait()
	// Already-uploaded parts stay as unreferenced CAS blobs: invisible
	// without a manifest, and free dedupe fodder for the retry.
	return nil
}

// manifestEnc is a pooled manifest encoder and the buffer it writes into:
// its bytes are json.MarshalIndent(m, "", "  ") and a newline, without
// Marshal's buffer and Indent's second one.
type manifestEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var manifestEncs = sync.Pool{New: func() any {
	e := new(manifestEnc)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// Commit publishes a manifest, making its object visible. Every part blob
// must already be durable — the manifest-last protocol's invariant. That
// check looks at the disk directly: a commit's precondition is not a read
// the fault gets to fail.
func (s *ObjStore) Commit(m *Manifest) error {
	if m == nil || m.Object == "" {
		return fmt.Errorf("store: commit without an object name")
	}
	for i, p := range m.Parts {
		if st, err := s.blobs.stat("", p.Blob); err != nil || st.Size != p.Size {
			return s.metrics.failed(fmt.Errorf("store: commit %q: part %d blob %q not durable", m.Object, i, p.Blob))
		}
	}
	e := manifestEncs.Get().(*manifestEnc)
	e.buf.Reset()
	if err := e.enc.Encode(m); err != nil {
		return fmt.Errorf("store: commit %q: %w", m.Object, err)
	}
	err := s.manifests.put(OpCommit, m.Object, e.buf.Bytes())
	poison(e.buf.Bytes())
	manifestEncs.Put(e)
	if err != nil {
		return s.metrics.failed(err)
	}
	s.metrics.inc(&s.metrics.Commits)
	return nil
}

// maxManifestBytes bounds how much manifest JSON the decoder will even
// look at: a manifest describes parts of at least 1 byte each, so any
// legitimate manifest is far below this, and a corrupt or hostile one
// cannot drive decoding-time allocations past the cap.
const maxManifestBytes = 16 << 20

// decodeManifest parses and validates manifest JSON the way the DSF reader
// treats its TOC: every field is bounds-checked before anything downstream
// trusts it, so corrupt bytes produce an error, never a panic, an
// over-allocation or a manifest whose arithmetic readers would trip over.
// object is the name the manifest was fetched for ("" skips the match
// check, for decoders without that context).
func decodeManifest(b []byte, object string) (*Manifest, error) {
	if len(b) > maxManifestBytes {
		return nil, fmt.Errorf("store: manifest exceeds %d bytes", maxManifestBytes)
	}
	// Parts is sized by its "blob" keys, which no escaped string can hold.
	m := Manifest{Parts: make([]Part, 0, bytes.Count(b, []byte(`"blob"`)))}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if err := validName(m.Object); err != nil {
		return nil, fmt.Errorf("store: manifest object: %w", err)
	}
	if object != "" && m.Object != object {
		return nil, fmt.Errorf("store: manifest names object %q, expected %q", m.Object, object)
	}
	var sum int64
	for i, p := range m.Parts {
		if err := validName(p.Blob); err != nil {
			return nil, fmt.Errorf("store: manifest %q: part %d blob: %w", m.Object, i, err)
		}
		if p.Size <= 0 {
			return nil, fmt.Errorf("store: manifest %q: part %d has non-positive size %d", m.Object, i, p.Size)
		}
		// A digest names its blob: it is the part cache's key for the blob's
		// bytes, so it may not file one blob's bytes under another's.
		if p.SHA256 != "" {
			sum, ok := strings.CutPrefix(p.Blob, casPrefix)
			if !ok || sum != p.SHA256 {
				return nil, fmt.Errorf("store: manifest %q: part %d digest %q does not name blob %q", m.Object, i, p.SHA256, p.Blob)
			}
			m.Parts[i].SHA256 = sum // the blob name's substring, not a second string
		}
		if p.Size > m.Size-sum {
			return nil, fmt.Errorf("store: manifest %q: parts exceed object size %d", m.Object, m.Size)
		}
		sum += p.Size
	}
	if sum != m.Size {
		return nil, fmt.Errorf("store: manifest %q: size %d != part sum %d", m.Object, m.Size, sum)
	}
	return &m, nil
}

// manifestBufs recycles the buffers Manifest reads files into. Nothing
// decoded aliases one: json.Unmarshal copies every string (a race build
// poisons each buffer on its way back to prove it).
var manifestBufs = sync.Pool{New: func() any { return new([]byte) }}

// Manifest reads a committed object's manifest back, re-validating every
// field — a manifest corrupted at rest fails loudly here instead of
// propagating bad arithmetic into readers.
func (s *ObjStore) Manifest(object string) (*Manifest, error) {
	buf := manifestBufs.Get().(*[]byte)
	defer func() { poison(*buf); manifestBufs.Put(buf) }()
	b, err := s.manifests.read(object, *buf)
	if err != nil {
		return nil, s.metrics.failed(err)
	}
	*buf = b
	m, err := decodeManifest(b, object)
	if err != nil {
		return nil, s.metrics.failed(fmt.Errorf("store: manifest %q: %w", object, err))
	}
	return m, nil
}

// eachManifest reads every committed manifest once, in name order, and
// hands it to fn. A manifest deleted between the walk and its read is no
// longer an object and is skipped.
func (s *ObjStore) eachManifest(fn func(m *Manifest)) error {
	if err := opFault(s.manifests.fault, OpList, ""); err != nil {
		return s.metrics.failed(err)
	}
	names, err := s.manifests.list("")
	if err != nil {
		return s.metrics.failed(err)
	}
	for _, o := range names {
		m, err := s.Manifest(o.Name)
		if errors.Is(err, ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		fn(m)
	}
	return nil
}

// Objects lists the committed objects (those with a manifest), sorted.
func (s *ObjStore) Objects() ([]ObjectInfo, error) {
	var out []ObjectInfo
	err := s.eachManifest(func(m *Manifest) { out = append(out, ObjectInfo{Name: m.Object, Size: m.Size}) })
	if err != nil {
		return nil, fmt.Errorf("store: objects: %w", err)
	}
	return out, nil
}

// Open returns random access over a committed object, resolving reads
// through its manifest to the content-addressed parts.
func (s *ObjStore) Open(object string) (ObjectReader, error) {
	if err := s.blobs.vet(OpOpen, object); err != nil {
		return nil, s.metrics.failed(err)
	}
	m, err := s.Manifest(object)
	if err != nil {
		return nil, err
	}
	r := &objReader{s: s, m: m, offsets: make([]int64, len(m.Parts)+1)}
	for i, p := range m.Parts { // decodeManifest checked that they sum to m.Size
		r.offsets[i+1] = r.offsets[i] + p.Size
	}
	return r, nil
}

// StatObject reports the committed object's revalidation signature: the
// size and mtime of its manifest file. Any manifest change (there should be
// none — objects are write-once — but operators can overwrite) changes the
// signature, which is what cache layers key invalidation on.
func (s *ObjStore) StatObject(object string) (ObjectStat, error) {
	st, err := s.manifests.stat(OpStat, object)
	return st, s.metrics.failed(err)
}

// objReader maps ReadAt offsets onto manifest parts and reads exactly the
// requested bytes of each covered part blob: one open, fstat and pread per
// part per call. It holds no
// state beyond the manifest, so any number of goroutines may share it;
// callers that want part reuse on a slow store go through the gateway's
// part cache.
type objReader struct {
	s       *ObjStore
	m       *Manifest
	offsets []int64 // offsets[i] is part i's start; last entry is the size
}

func (r *objReader) Size() int64  { return r.m.Size }
func (r *objReader) Close() error { return nil }

// partAt returns the index of the part containing offset off.
func (r *objReader) partAt(off int64) int {
	return sort.Search(len(r.m.Parts), func(i int) bool { return r.offsets[i+1] > off })
}

func (r *objReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	// io.ReaderAt contract: a read starting at or past the end reports
	// io.EOF even for a zero-length p — callers probe for EOF this way.
	if off >= r.m.Size {
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 {
		if off >= r.m.Size {
			return total, io.EOF
		}
		i := r.partAt(off)
		want := p[:min(int64(len(p)), r.offsets[i+1]-off)]
		n, err := r.s.ReadPartAt(r.m.Parts[i], want, off-r.offsets[i])
		if err != nil {
			return total, err
		}
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// Stats snapshots the backend metrics.
func (s *ObjStore) Stats() Stats { return s.metrics.snapshot() }

// Close releases the open directories; an operation after it fails.
func (s *ObjStore) Close() error {
	return errors.Join(s.blobs.dir.Close(), s.manifests.dir.Close(), s.blobs.tmp.Close())
}
