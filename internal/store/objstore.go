package store

import (
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
	"sync"
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

	// sem bounds the parts concurrently uploading (or buffered awaiting a
	// worker slot) across all of this backend's ObjectWriters.
	sem chan struct{}
	// partBufs recycles part-sized buffers between uploads so steady-state
	// multipart writes allocate nothing per part. It is a plain free list,
	// not a sync.Pool: a pool's per-P slots made a buffer put back by an
	// uploader invisible to a writer on another P every so often, and each
	// miss is a part-sized allocation. The list holds what was once in use
	// at the same time, at most one buffer per open writer plus putWorkers.
	bufMu    sync.Mutex
	partBufs []*[]byte

	// latMu guards the put-latency reservoir the hedge trigger is computed
	// from and the jitter source for retry backoff.
	latMu   sync.Mutex
	lats    [64]float64 // ring of recent successful put seconds
	latN    int         // total samples ever recorded
	jitter  *rand.Rand
	scratch []float64 // reusable sort buffer for the percentile
}

// objTarget is one storage root: a tree of blobs and a tree of manifests,
// both consulting the target's own injected fault.
type objTarget struct {
	blobs, manifests tree
}

func newObjTarget(root string, fault Fault) (objTarget, error) {
	tmp := filepath.Join(root, "tmp")
	t := objTarget{
		blobs:     tree{root: filepath.Join(root, "blobs"), tmpDir: tmp, tmpPrefix: "t-", fault: fault},
		manifests: tree{root: filepath.Join(root, "manifests"), suffix: ".json", tmpDir: tmp, tmpPrefix: "t-", fault: fault},
	}
	for _, dir := range []string{t.blobs.root, t.manifests.root, tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return t, fmt.Errorf("store: object backend: %w", err)
		}
	}
	return t, nil
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
			return nil, err
		}
		s.targets = append(s.targets, t)
	}
	return s, nil
}

// getPartBuf takes an empty part-sized buffer off the free list, or makes
// one when every buffer is in use.
func (s *ObjStore) getPartBuf() *[]byte {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if n := len(s.partBufs); n > 0 {
		buf := s.partBufs[n-1]
		s.partBufs = s.partBufs[:n-1]
		return buf
	}
	b := make([]byte, 0, s.partSize)
	return &b
}

// putPartBuf empties buf and returns it to the free list.
func (s *ObjStore) putPartBuf(buf *[]byte) {
	*buf = (*buf)[:0]
	s.bufMu.Lock()
	s.partBufs = append(s.partBufs, buf)
	s.bufMu.Unlock()
}

// PartSize returns the multipart split size.
func (s *ObjStore) PartSize() int64 { return s.partSize }

// casBlobName is the content-addressed blob name of one part.
func casBlobName(sum [sha256.Size]byte) string {
	return "cas/sha256/" + hex.EncodeToString(sum[:])
}

// withPutTimeout runs one write attempt under the per-put deadline. On
// deadline the attempt keeps running in the background (a hung fault or
// filesystem cannot be interrupted) and the caller gets a retryable
// ErrPutTimeout; if the stray attempt lands its blob later, the retry's
// content-addressed dedupe probe discovers it. Without a configured
// deadline this is a plain call — no goroutine per put.
func (s *ObjStore) withPutTimeout(fn func() error) error {
	if s.putTimeout <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(s.putTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		s.metrics.inc(&s.metrics.PutTimeouts)
		return fmt.Errorf("store: put timed out after %v: %w", s.putTimeout, ErrPutTimeout)
	}
}

// putAt stores one immutable blob on target t, under the per-put deadline.
// The temp file is fsynced before the rename: the manifest-last protocol's
// invariant is that everything a manifest references is durable, so a crash
// after a blob's rename must never surface zero-filled part bytes.
func (s *ObjStore) putAt(t *objTarget, name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	// The timer starts before the fault hook on purpose: injected latency
	// models the storage target, so it belongs in PutLatency.
	start := time.Now()
	err := s.withPutTimeout(func() error { return t.blobs.put(OpPut, name, data) })
	if err != nil {
		return s.metrics.failed(err)
	}
	sec := time.Since(start).Seconds()
	s.metrics.put(sec, int64(len(data)))
	s.observePutLatency(sec)
	return nil
}

// Put stores one immutable blob on the primary target. Re-putting an
// existing name is legal only with identical bytes (content-addressed
// callers get that by construction); the rename makes the operation
// idempotent either way.
func (s *ObjStore) Put(name string, data []byte) error { return s.putAt(&s.targets[0], name, data) }

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
	n := s.latN
	if n > len(s.lats) {
		n = len(s.lats)
	}
	if s.latN < hedgeTriggerSamples {
		return s.hedgeAfter
	}
	s.scratch = append(s.scratch[:0], s.lats[:n]...)
	sort.Float64s(s.scratch)
	idx := int(float64(n-1) * s.hedgePct / 100)
	d := time.Duration(s.scratch[idx] * float64(time.Second))
	if d < s.hedgeAfter {
		d = s.hedgeAfter
	}
	return d
}

// hedged runs do on the primary and, while it stays outstanding past the
// hedge trigger (or fails outright), escalates to the next target, then the
// next — first success wins. Losing attempts are abandoned, not interrupted:
// idempotent writes make a straggler that finishes later land identical
// bytes, so nothing waits for it. With no replicas this is a plain primary
// call.
func (s *ObjStore) hedged(do func(t *objTarget) error) error {
	n := len(s.targets)
	if n == 1 {
		return do(&s.targets[0])
	}
	type res struct {
		ti  int
		err error
	}
	ch := make(chan res, n) // buffered: abandoned attempts never block
	launch := func(ti int) {
		go func() { ch <- res{ti, do(&s.targets[ti])} }()
	}
	launch(0)
	launched, pending := 1, 1
	var firstErr error
	for {
		var hedgeC <-chan time.Time
		var timer *time.Timer
		if launched < n {
			timer = time.NewTimer(s.hedgeDelay())
			hedgeC = timer.C
		}
		select {
		case r := <-ch:
			if timer != nil {
				timer.Stop()
			}
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

// readPartAt fills p from offset off of a manifest part's blob on target t.
// A blob whose length is not the manifest's is an error, never bytes: the
// same check a whole-part Get gets from its caller. It opens the blob the
// way Get does, so the OpGet fault hook guards ranged reads too.
func (s *ObjStore) readPartAt(t *objTarget, part Part, p []byte, off int64) (int, error) {
	start := time.Now()
	f, size, err := t.blobs.open(OpGet, part.Blob)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if size != part.Size {
		return 0, fmt.Errorf("store: part %q is %d bytes, manifest says %d", part.Blob, size, part.Size)
	}
	if _, err := f.ReadAt(p, off); err != nil {
		return 0, opErr(OpGet, part.Blob, err)
	}
	s.metrics.get(time.Since(start).Seconds(), int64(len(p)))
	return len(p), nil
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
	if err := validName(name); err != nil {
		return nil, err
	}
	return firstTarget(s, func(t *objTarget) ([]byte, error) {
		start := time.Now()
		b, err := t.blobs.read(name)
		if err == nil {
			s.metrics.get(time.Since(start).Seconds(), int64(len(b)))
		}
		return b, err
	})
}

// Stat reports a blob's size — the dedupe probe — falling back across
// replica targets like Get.
func (s *ObjStore) Stat(name string) (ObjectInfo, error) {
	if err := validName(name); err != nil {
		return ObjectInfo{}, err
	}
	return firstTarget(s, func(t *objTarget) (ObjectInfo, error) {
		fi, err := t.blobs.stat(name)
		if err != nil {
			return ObjectInfo{}, err
		}
		return ObjectInfo{Name: name, Size: fi.Size()}, nil
	})
}

// union lists the names under prefix of one tree per target — a hedged part
// or manifest that only landed on a replica is listed too. The listing's
// OpList is the primary's to fail.
func (s *ObjStore) union(prefix string, pick func(*objTarget) *tree) ([]ObjectInfo, error) {
	if err := opFault(s.targets[0].blobs.fault, OpList, prefix); err != nil {
		return nil, s.metrics.failed(err)
	}
	trees := make([]*tree, len(s.targets))
	for i := range s.targets {
		trees[i] = pick(&s.targets[i])
	}
	out, err := list(prefix, trees...)
	return out, s.metrics.failed(err)
}

// List returns the blobs whose names start with prefix, sorted — the union
// across targets.
func (s *ObjStore) List(prefix string) ([]ObjectInfo, error) {
	return s.union(prefix, func(t *objTarget) *tree { return &t.blobs })
}

// Delete removes a blob from the primary target. Deleting a part still
// referenced by a manifest breaks that object — garbage collection of
// unreferenced parts is GC's concern.
func (s *ObjStore) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
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
	return &objWriter{s: s, object: object, buf: s.getPartBuf()}, nil
}

// objWriter accumulates partSize bytes at a time and hands full parts to
// the upload pool; Write blocks when putWorkers parts are already in
// flight, so memory stays bounded at (putWorkers+1) part buffers no matter
// how large the object is.
type objWriter struct {
	s      *ObjStore
	object string
	buf    *[]byte
	size   int64
	nparts int
	wg     sync.WaitGroup

	mu       sync.Mutex
	parts    []Part // indexed by part number, filled as uploads finish
	firstErr error
	done     bool
}

func (w *objWriter) setErr(err error) {
	w.mu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.mu.Unlock()
}

func (w *objWriter) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

func (w *objWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("store: write on finished object %q", w.object)
	}
	if err := w.err(); err != nil {
		return 0, err // fail fast: a part already failed terminally
	}
	written := 0
	for len(p) > 0 {
		room := int(w.s.partSize) - len(*w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		*w.buf = append(*w.buf, p[:n]...)
		p = p[n:]
		written += n
		w.size += int64(n)
		if int64(len(*w.buf)) == w.s.partSize {
			w.dispatchPart()
		}
	}
	return written, nil
}

// dispatchPart hands the current buffer to the upload pool and starts a
// fresh one. It blocks on the pool semaphore — the multipart backpressure
// point.
func (w *objWriter) dispatchPart() {
	buf := w.buf
	idx := w.nparts
	w.nparts++
	w.mu.Lock()
	w.parts = append(w.parts, Part{}) // reserve slot idx, filled by the upload
	w.mu.Unlock()

	w.s.metrics.partStart()
	w.s.sem <- struct{}{} // acquire a pool slot (blocks when saturated)
	w.wg.Add(1)
	go func() {
		defer func() {
			<-w.s.sem
			w.s.metrics.partEnd()
			w.s.putPartBuf(buf)
			w.wg.Done()
		}()
		part, err := w.s.uploadPart(*buf)
		if err != nil {
			w.setErr(fmt.Errorf("store: object %q part %d: %w", w.object, idx, err))
			return
		}
		w.mu.Lock()
		w.parts[idx] = part
		w.mu.Unlock()
	}()

	w.buf = w.s.getPartBuf()
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
		if step := retryBackoffBase << shift; step < d {
			d = step
		}
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
func (s *ObjStore) uploadPart(data []byte) (Part, error) {
	sum := sha256.Sum256(data)
	part := Part{
		Blob:   casBlobName(sum),
		Size:   int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	}
	if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
		s.dedupeHit(part)
		return part, nil
	}
	var lastErr error
	for attempt := 1; attempt <= s.putAttempts; attempt++ {
		if attempt > 1 {
			s.metrics.inc(&s.metrics.Retries)
			s.backoffBeforeAttempt(attempt)
			// A failed attempt may have landed the blob anyway (e.g. the
			// caller observed a timeout after the rename); content
			// addressing lets the retry begin with the same dedupe probe.
			if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
				s.dedupeHit(part)
				return part, nil
			}
		}
		if lastErr = s.hedged(func(t *objTarget) error { return s.putAt(t, part.Blob, data) }); lastErr == nil {
			return part, nil
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
	if len(*w.buf) > 0 {
		w.dispatchPart()
	}
	// Release the final buffer and wait for every in-flight part.
	w.s.putPartBuf(w.buf)
	w.buf = nil
	w.wg.Wait()
	if err := w.err(); err != nil {
		return nil, err
	}
	m := &Manifest{Object: w.object, Size: w.size, Parts: w.parts}
	if err := w.s.Commit(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (w *objWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	if w.buf != nil {
		w.s.putPartBuf(w.buf)
		w.buf = nil
	}
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
		if fi, err := os.Stat(s.targets[i].blobs.path(p.Blob)); err == nil && fi.Size() == p.Size {
			return true
		}
	}
	return false
}

// Commit publishes a manifest, making its object visible. Every part blob
// must already be durable — the manifest-last protocol's invariant. The
// manifest write itself is hedged like part puts: a hung primary must not
// stall the commit that advances the durability watermark.
func (s *ObjStore) Commit(m *Manifest) error {
	if m == nil || m.Object == "" {
		return fmt.Errorf("store: commit without an object name")
	}
	if err := validName(m.Object); err != nil {
		return err
	}
	for i, p := range m.Parts {
		if !s.partDurable(p) {
			return s.metrics.failed(fmt.Errorf("store: commit %q: part %d blob %q not durable", m.Object, i, p.Blob))
		}
	}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: commit %q: %w", m.Object, err)
	}
	enc = append(enc, '\n')
	err = s.hedged(func(t *objTarget) error {
		return s.withPutTimeout(func() error { return t.manifests.put(OpCommit, m.Object, enc) })
	})
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
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if err := validName(m.Object); err != nil {
		return nil, fmt.Errorf("store: manifest object: %w", err)
	}
	if object != "" && m.Object != object {
		return nil, fmt.Errorf("store: manifest names object %q, expected %q", m.Object, object)
	}
	if m.Size < 0 {
		return nil, fmt.Errorf("store: manifest %q: negative size %d", m.Object, m.Size)
	}
	var sum int64
	for i, p := range m.Parts {
		if err := validName(p.Blob); err != nil {
			return nil, fmt.Errorf("store: manifest %q: part %d blob: %w", m.Object, i, err)
		}
		if p.Size <= 0 {
			return nil, fmt.Errorf("store: manifest %q: part %d has non-positive size %d", m.Object, i, p.Size)
		}
		if p.SHA256 != "" {
			if len(p.SHA256) != 2*sha256.Size {
				return nil, fmt.Errorf("store: manifest %q: part %d digest length %d", m.Object, i, len(p.SHA256))
			}
			if _, err := hex.DecodeString(p.SHA256); err != nil {
				return nil, fmt.Errorf("store: manifest %q: part %d digest: %w", m.Object, i, err)
			}
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

// Manifest reads a committed object's manifest back, re-validating every
// field — a manifest corrupted at rest fails loudly here instead of
// propagating bad arithmetic into readers. Like Get, it falls back across
// replica targets: a commit whose hedge won on a replica is still visible.
func (s *ObjStore) Manifest(object string) (*Manifest, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	return firstTarget(s, func(t *objTarget) (*Manifest, error) {
		b, err := t.manifests.read(object)
		if err != nil {
			return nil, err
		}
		m, err := decodeManifest(b, object)
		if err != nil {
			return nil, fmt.Errorf("store: manifest %q: %w", object, err)
		}
		return m, nil
	})
}

// Objects lists the committed objects (those with a manifest), sorted. The
// listing is the union across targets: an object whose hedged commit landed
// only on a replica still shows up.
func (s *ObjStore) Objects() ([]ObjectInfo, error) {
	out, err := s.union("", func(t *objTarget) *tree { return &t.manifests })
	if err != nil {
		return nil, err
	}
	for i := range out {
		m, err := s.Manifest(out[i].Name)
		if err != nil {
			return nil, fmt.Errorf("store: objects: %w", err)
		}
		out[i].Size = m.Size
	}
	return out, nil
}

// Open returns random access over a committed object, resolving reads
// through its manifest to the content-addressed parts.
func (s *ObjStore) Open(object string) (ObjectReader, error) {
	if err := opFault(s.targets[0].blobs.fault, OpOpen, object); err != nil {
		return nil, s.metrics.failed(err)
	}
	m, err := s.Manifest(object)
	if err != nil {
		return nil, err
	}
	r := &objReader{s: s, m: m, offsets: make([]int64, len(m.Parts)+1)}
	var off int64
	for i, p := range m.Parts {
		r.offsets[i] = off
		off += p.Size
	}
	r.offsets[len(m.Parts)] = off
	if off != m.Size {
		return nil, fmt.Errorf("store: open %q: manifest size %d != part sum %d", object, m.Size, off)
	}
	return r, nil
}

// StatObject reports the committed object's revalidation signature: the
// size and mtime of its manifest file. Any manifest change (there should be
// none — objects are write-once — but operators can overwrite) changes the
// signature, which is what cache layers key invalidation on.
func (s *ObjStore) StatObject(object string) (ObjectStat, error) {
	if err := validName(object); err != nil {
		return ObjectStat{}, err
	}
	return firstTarget(s, func(t *objTarget) (ObjectStat, error) {
		fi, err := t.manifests.stat(object)
		if err != nil {
			return ObjectStat{}, err
		}
		return ObjectStat{Size: fi.Size(), ModTime: fi.ModTime()}, nil
	})
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
		want := p
		if room := r.offsets[i+1] - off; int64(len(want)) > room {
			want = want[:room]
		}
		n, err := firstTarget(r.s, func(t *objTarget) (int, error) {
			return r.s.readPartAt(t, r.m.Parts[i], want, off-r.offsets[i])
		})
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

// Close is a no-op today; the interface keeps it for backends with real
// connections to tear down.
func (s *ObjStore) Close() error { return nil }
