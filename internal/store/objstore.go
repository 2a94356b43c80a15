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
	"slices"
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
//
// # Replica targets and hedged writes
//
// Optional replica targets (Options.Replicas, or repeated replica= URL
// parameters) turn the store into a small replica set with the same layout
// under each root. Writes go to the primary first; a part put or manifest
// commit still outstanding past the hedge trigger — the configured
// percentile of observed put latency, floored at HedgeAfter — is re-issued
// to the next target, first success wins. The "cancel" of the losing
// attempt is idempotence, not interruption: content addressing and
// write-temp-then-rename make a straggler that completes later land the
// exact same bytes, so nobody waits for it. Reads (Get/Stat/Manifest/Open)
// fall back across targets in order, so an object whose parts were hedged
// onto a replica stays fully readable. GC sweeps the primary only.
type ObjStore struct {
	partSize    int64
	putAttempts int
	putTimeout  time.Duration
	hedgeAfter  time.Duration
	hedgePct    float64
	targets     []objTarget // index 0 is the primary
	metrics     metrics
	lastParts   atomic.Int64 // part count of the last object committed: where the next one's list starts

	// sem bounds the parts concurrently uploading (or filled awaiting a
	// worker slot) across all of this backend's ObjectWriters.
	sem chan struct{}

	// latMu guards the put-latency reservoir the hedge trigger is computed
	// from and the jitter source for retry backoff.
	latMu  sync.Mutex
	lats   [64]float64 // ring of recent successful put seconds
	latN   int         // total samples ever recorded
	jitter *rand.Rand
}

// objTarget is one storage root: a tree of blobs and a tree of manifests,
// both consulting the target's own injected fault and sharing its open tmp/.
type objTarget struct {
	blobs, manifests tree
}

func newObjTarget(root string, fault Fault) (objTarget, error) {
	var dirs [3]*os.File
	for i, name := range []string{"blobs", "manifests", "tmp"} {
		d, err := openDir(filepath.Join(root, name))
		if err != nil {
			for _, d := range dirs[:i] {
				d.Close()
			}
			return objTarget{}, fmt.Errorf("store: object backend: %w", err)
		}
		dirs[i] = d
	}
	return objTarget{
		blobs:     tree{dir: dirs[0], tmp: dirs[2], tmpPrefix: "t-", fault: fault},
		manifests: tree{dir: dirs[1], suffix: ".json", tmp: dirs[2], tmpPrefix: "t-", fault: fault},
	}, nil
}

// ErrPutTimeout marks a put attempt abandoned at the per-put deadline. The
// attempt may still land its blob later; retries re-probe via content
// addressing, which keeps the timeout retryable.
var ErrPutTimeout = errors.New("store: put deadline exceeded")

// NewObjStore opens (creating if needed) an object store rooted at dir.
func NewObjStore(dir string, opts Options) (*ObjStore, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if dir == "" {
		return nil, fmt.Errorf("store: object backend needs a root directory")
	}
	s := &ObjStore{
		partSize:    opts.PartSize,
		putAttempts: opts.PutAttempts,
		putTimeout:  opts.PutTimeout,
		hedgeAfter:  opts.HedgeAfter,
		hedgePct:    opts.HedgePct,
		metrics:     metrics{Stats: Stats{Scheme: "obj"}},
		sem:         make(chan struct{}, opts.PutWorkers),
		// Jitter only spreads retry backoff in time; a fixed seed keeps runs
		// reproducible and output bytes never depend on it.
		jitter: rand.New(rand.NewSource(1)),
	}
	faults := append([]Fault{opts.Fault}, opts.ReplicaFaults...)
	for i, root := range append([]string{dir}, opts.Replicas...) {
		var fault Fault
		if i < len(faults) {
			fault = faults[i]
		}
		t, err := newObjTarget(root, fault)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.targets = append(s.targets, t)
	}
	return s, nil
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

// abandons reports whether a write attempt can outlive the call that made
// it: a losing hedge or a put past its deadline is abandoned, not
// interrupted, so the bytes it was handed must not be reused.
func (s *ObjStore) abandons() bool { return len(s.targets) > 1 || s.putTimeout > 0 }

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

// put is one write attempt a hedge may re-issue and a deadline may abandon:
// the runs, in order, landing as name in a target's blobs (op OpPut, a part
// of size bytes) or manifests (OpCommit). It travels as a value, so a put
// that neither hedges nor has a deadline builds no closure.
type put struct {
	op, name string
	runs     [][]byte
	size     int64
}

// putOn lands p on target t under the per-put deadline. A part put is timed
// and counted, its failure too; a commit's one outcome is Commit's to count.
func (s *ObjStore) putOn(t *objTarget, p put) error {
	tr := &t.blobs
	if p.op == OpCommit {
		tr = &t.manifests
	}
	// The timer starts before the fault hook on purpose: injected latency
	// models the storage target, so it belongs in PutLatency.
	start := time.Now()
	err := s.withPutTimeout(tr, p)
	if p.op == OpCommit {
		return err
	}
	if err != nil {
		return s.metrics.failed(err)
	}
	sec := time.Since(start).Seconds()
	s.metrics.put(sec, p.size)
	s.observePutLatency(sec)
	return nil
}

// withPutTimeout runs one write attempt under the per-put deadline. On
// deadline the attempt keeps running in the background (a hung fault or
// filesystem cannot be interrupted) and the caller gets a retryable
// ErrPutTimeout; if the stray attempt lands its blob later, the retry's
// content-addressed dedupe probe discovers it. Without a configured
// deadline this is a plain call — no goroutine per put.
func (s *ObjStore) withPutTimeout(tr *tree, p put) error {
	if s.putTimeout <= 0 {
		return tr.put(p.op, p.name, p.runs...)
	}
	done := make(chan error, 1)
	go func() { done <- tr.put(p.op, p.name, p.runs...) }()
	select {
	case err := <-done:
		return err
	case <-time.After(s.putTimeout):
		s.metrics.inc(&s.metrics.PutTimeouts)
		return fmt.Errorf("store: put timed out after %v: %w", s.putTimeout, ErrPutTimeout)
	}
}

// observePutLatency feeds the hedge trigger's latency reservoir.
func (s *ObjStore) observePutLatency(sec float64) {
	s.latMu.Lock()
	s.lats[s.latN%len(s.lats)] = sec
	s.latN++
	s.latMu.Unlock()
}

// hedgeTriggerSamples is how many put-latency observations the percentile
// trigger needs before it overrides the configured floor.
const hedgeTriggerSamples = 8

// hedgeDelay returns how long a write may stay outstanding before it is
// re-issued to the next target: the configured percentile of recently
// observed put latency, floored at HedgeAfter (also the fallback while the
// reservoir is still cold).
func (s *ObjStore) hedgeDelay() time.Duration {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if s.latN < hedgeTriggerSamples {
		return s.hedgeAfter
	}
	n, sorted := min(s.latN, len(s.lats)), s.lats
	slices.Sort(sorted[:n])
	idx := int(float64(n-1) * s.hedgePct / 100)
	return max(time.Duration(sorted[idx]*float64(time.Second)), s.hedgeAfter)
}

// hedged runs p on the primary and, while it stays outstanding past the
// hedge trigger (or fails outright), escalates to the next target, then the
// next — first success wins. Losing attempts are abandoned, not interrupted:
// idempotent writes make a straggler that finishes later land identical
// bytes, so nothing waits for it. With no replicas this is a plain primary
// call.
func (s *ObjStore) hedged(p put) error {
	n := len(s.targets)
	if n == 1 {
		return s.putOn(&s.targets[0], p)
	}
	type res struct {
		ti  int
		err error
	}
	ch := make(chan res, n) // buffered: abandoned attempts never block
	launch := func(ti int) {
		go func() { ch <- res{ti, s.putOn(&s.targets[ti], p)} }()
	}
	launch(0)
	launched, pending := 1, 1
	var firstErr error
	for {
		var hedgeC <-chan time.Time // nil, never ready, once every target has an attempt
		if launched < n {
			hedgeC = time.After(s.hedgeDelay())
		}
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.ti > 0 {
					s.metrics.inc(&s.metrics.HedgeWins)
				}
				return nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if launched < n {
				// A definitive failure hedges immediately — no point waiting
				// out the trigger for a target that already said no.
				s.metrics.inc(&s.metrics.Hedges)
				launch(launched)
				launched++
				pending++
			} else if pending == 0 {
				return firstErr
			}
		case <-hedgeC:
			s.metrics.inc(&s.metrics.Hedges)
			launch(launched)
			launched++
			pending++
		}
	}
}

// ReadPartAt fills p from offset off of a manifest part's blob, falling back
// across replica targets like Get. A blob whose length is not the
// manifest's is an error, never bytes: the same check a whole-part Get gets
// from its caller. It opens the blob the way Get does, so the OpGet fault
// hook guards ranged reads too.
func (s *ObjStore) ReadPartAt(part Part, p []byte, off int64) (int, error) {
	return firstTarget(s, func(t *objTarget) (int, error) {
		start := time.Now()
		if err := t.blobs.readPart(part, p, off); err != nil {
			return 0, err
		}
		s.metrics.get(time.Since(start).Seconds(), int64(len(p)))
		return len(p), nil
	})
}

// firstTarget runs fn against the primary target, then each replica in
// order, and returns the first success — a part or manifest that was hedged
// onto a replica stays readable even when the primary lost (or never
// received) it. Each target's failure is counted; when every target fails,
// the primary's error is returned.
func firstTarget[T any](s *ObjStore, fn func(t *objTarget) (T, error)) (T, error) {
	var zero T
	var firstErr error
	for i := range s.targets {
		v, err := fn(&s.targets[i])
		if err == nil {
			return v, nil
		}
		s.metrics.failed(err)
		if firstErr == nil {
			firstErr = err
		}
	}
	return zero, firstErr
}

// Get reads a blob back, falling back across replica targets in order.
func (s *ObjStore) Get(name string) ([]byte, error) {
	return firstTarget(s, func(t *objTarget) ([]byte, error) {
		start := time.Now()
		b, err := t.blobs.read(name, nil)
		if err == nil {
			s.metrics.get(time.Since(start).Seconds(), int64(len(b)))
		}
		return b, err
	})
}

// Stat reports a blob's size — the dedupe probe — falling back across
// replica targets like Get.
func (s *ObjStore) Stat(name string) (ObjectInfo, error) {
	return firstTarget(s, func(t *objTarget) (ObjectInfo, error) {
		st, err := t.blobs.stat(OpStat, name)
		return ObjectInfo{Name: name, Size: st.Size}, err
	})
}

// Delete removes a blob from the primary target. Deleting a part still
// referenced by a manifest breaks that object — garbage collection of
// unreferenced parts is GC's concern.
func (s *ObjStore) Delete(name string) error {
	if err := s.targets[0].blobs.remove(name); err != nil {
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

// WritePinned keeps p in the parts' runs. A store whose uploads can outlive
// Commit (abandons) copies it, as Write does: a losing hedge or a put past
// its deadline may still be writing p after the caller has moved on.
func (w *objWriter) WritePinned(p []byte) (int, error) { return w.write(p, !w.s.abandons()) }

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
			if !w.s.abandons() { // else an abandoned put may still read the runs
				clear(pt.runs)
				pt.runs, pt.size = pt.runs[:0], 0
				partPool.Put(pt)
			}
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
// growing waits past what the put timeout already bounds; the jitter keeps a
// burst of failed parts from retrying in lockstep against a target that just
// browned out.
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
	s.latMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.latMu.Unlock()
	d = d/2 + j
	s.metrics.backoff(d.Seconds())
	time.Sleep(d)
}

// uploadPart content-addresses one part and makes it durable: a part whose
// blob already exists is a dedupe hit (skip the upload entirely); otherwise
// put it — hedged across replica targets when configured — retrying
// transient failures with backoff, idempotent because the name is the
// content.
func (s *ObjStore) uploadPart(pt *objPart) (Part, error) {
	part := casPart(pt.digest(), pt.size)
	var lastErr error
	for attempt := 1; attempt <= s.putAttempts; attempt++ {
		if attempt > 1 {
			s.metrics.inc(&s.metrics.Retries)
			s.backoffBeforeAttempt(attempt)
		}
		// Every attempt begins with the dedupe probe: a failed attempt may
		// have landed the blob anyway (e.g. the caller observed a timeout
		// after the rename).
		if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
			s.dedupeHit(part)
			return part, nil
		}
		if lastErr = s.hedged(put{OpPut, part.Blob, pt.runs, part.Size}); lastErr == nil {
			return part, s.checkPut(pt, part)
		}
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
	_ = os.Chtimes(s.targets[0].blobs.path(part.Blob), now, now) // best-effort: worst case the blob just looks older
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

// partDurable reports whether a part's blob is durable on any target — a
// part that was hedged onto a replica satisfies the manifest-last invariant
// just as well as one on the primary, because reads fall back the same way.
// It looks at the disk directly: a commit's precondition is not a read the
// fault gets to fail.
func (s *ObjStore) partDurable(p Part) bool {
	for i := range s.targets {
		if st, err := s.targets[i].blobs.stat("", p.Blob); err == nil && st.Size == p.Size {
			return true
		}
	}
	return false
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
// must already be durable — the manifest-last protocol's invariant. The
// manifest write itself is hedged like part puts: a hung primary must not
// stall the commit that advances the durability watermark.
func (s *ObjStore) Commit(m *Manifest) error {
	if m == nil || m.Object == "" {
		return fmt.Errorf("store: commit without an object name")
	}
	for i, p := range m.Parts {
		if !s.partDurable(p) {
			return s.metrics.failed(fmt.Errorf("store: commit %q: part %d blob %q not durable", m.Object, i, p.Blob))
		}
	}
	e := manifestEncs.Get().(*manifestEnc)
	e.buf.Reset()
	if err := e.enc.Encode(m); err != nil {
		return fmt.Errorf("store: commit %q: %w", m.Object, err)
	}
	err := s.hedged(put{op: OpCommit, name: m.Object, runs: [][]byte{e.buf.Bytes()}})
	if !s.abandons() { // else an abandoned commit may still write the buffer
		poison(e.buf.Bytes())
		manifestEncs.Put(e)
	}
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
// propagating bad arithmetic into readers. Like Get, it falls back across
// replica targets: a commit whose hedge won on a replica is still visible.
func (s *ObjStore) Manifest(object string) (*Manifest, error) {
	buf := manifestBufs.Get().(*[]byte)
	defer func() { poison(*buf); manifestBufs.Put(buf) }()
	return firstTarget(s, func(t *objTarget) (*Manifest, error) {
		b, err := t.manifests.read(object, *buf)
		if err != nil {
			return nil, err
		}
		*buf = b
		m, err := decodeManifest(b, object)
		if err != nil {
			return nil, fmt.Errorf("store: manifest %q: %w", object, err)
		}
		return m, nil
	})
}

// eachManifest reads every committed manifest once, in name order, and
// hands it to fn. The listing is the union across targets: an object whose
// hedged commit landed only on a replica is read too. Its OpList is the
// primary's to fail. A manifest deleted between the walk and its read is no
// longer an object and is skipped.
func (s *ObjStore) eachManifest(fn func(m *Manifest)) error {
	if err := opFault(s.targets[0].blobs.fault, OpList, ""); err != nil {
		return s.metrics.failed(err)
	}
	trees := make([]*tree, len(s.targets))
	for i := range s.targets {
		trees[i] = &s.targets[i].manifests
	}
	names, err := list("", trees...)
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
	if err := s.targets[0].blobs.vet(OpOpen, object); err != nil {
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
	return firstTarget(s, func(t *objTarget) (ObjectStat, error) { return t.manifests.stat(OpStat, object) })
}

// objReader maps ReadAt offsets onto manifest parts and reads exactly the
// requested bytes of each covered part blob: one open, fstat and pread per
// part per call, falling back across replica targets like Get. It holds no
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

// Close releases every target's open directories; an operation after it
// fails.
func (s *ObjStore) Close() error {
	var errs []error
	for _, t := range s.targets {
		errs = append(errs, t.blobs.dir.Close(), t.manifests.dir.Close(), t.blobs.tmp.Close())
	}
	return errors.Join(errs...)
}
