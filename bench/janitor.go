package main

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/gateway"
	"damaris/internal/store"
)

// object is one committed DSF object as its own TOC describes it.
type object struct {
	name     string
	commitAt time.Time // when ObjectWriter.Commit returned
	iters    []int64   // iterations it holds, ascending
	chunks   int
}

// chunkKey is the tuple that must be durable exactly once.
type chunkKey struct {
	variable, source int
	iteration        int64
}

type commitEvent struct {
	object string
	at     time.Time
}

// janitor bounds the segment's footprint: it checks the TOC of every object
// as it is committed, keeps the newest Retain objects for readers and the
// final read-back, and deletes the rest. Without it the tmpfs grows to
// gigabytes of never-touched guest pages and flush latency follows.
type janitor struct {
	w     workload
	inner statingBackend
	dir   string

	events chan commitEvent

	mu       sync.RWMutex // retained, against readers picking from it
	retained []object

	vars map[string]int // variable name -> index

	// Written by run only; read after it returned.
	seen     map[chunkKey]int
	commitOf map[int64]time.Time // iteration -> commit instant of its object
	lowest   map[string]int64    // object -> its lowest iteration
	objects  int
	tally
}

func newJanitor(w workload, inner statingBackend, dir string) *janitor {
	vars := make(map[string]int, w.Vars)
	for v := 0; v < w.Vars; v++ {
		vars[varName(v)] = v
	}
	return &janitor{
		w: w, inner: inner, dir: dir, vars: vars,
		// At most one object per iteration; Commit must never wait for the
		// janitor.
		events:   make(chan commitEvent, w.Iterations+1),
		seen:     make(map[chunkKey]int),
		commitOf: make(map[int64]time.Time),
		lowest:   make(map[string]int64),
	}
}

// committed is the backend wrapper's hook, called as Commit returns.
func (j *janitor) committed(object string, at time.Time) {
	j.events <- commitEvent{object, at}
}

// stop lets run drain what is queued and return.
func (j *janitor) stop() { close(j.events) }

func (j *janitor) run() {
	for ev := range j.events {
		j.admit(ev)
		for {
			j.mu.Lock()
			if len(j.retained) <= j.w.Retain {
				j.mu.Unlock()
				break
			}
			old := j.retained[0]
			j.retained = j.retained[1:]
			j.mu.Unlock()
			// No reader holds it any more: readers pick and read under the
			// read lock.
			if err := j.delete(old.name); err != nil {
				j.fail("janitor: delete %s: %v", old.name, err)
			}
		}
	}
}

// varIndex is varName's inverse; -1 for a name the workload never wrote.
func (j *janitor) varIndex(name string) int {
	if v, ok := j.vars[name]; ok {
		return v
	}
	return -1
}

// admit checks a new object's TOC (variables x sources x iterations, sizes,
// codec) and makes it readable.
func (j *janitor) admit(ev commitEvent) {
	j.objects++
	metas, err := j.readTOC(ev.object)
	if err != nil {
		j.fail("janitor: %s: %v", ev.object, err)
		return
	}
	perIter := make(map[int64]int)
	for _, m := range metas {
		v := j.varIndex(m.Name)
		if v < 0 || m.Source < 0 || m.Source >= clients ||
			m.RawSize != int64(j.w.VarBytes) || m.Codec != j.w.Codec {
			j.fail("janitor: %s: unexpected chunk %s source %d it %d raw %d codec %v",
				ev.object, m.Name, m.Source, m.Iteration, m.RawSize, m.Codec)
			continue
		}
		j.seen[chunkKey{v, m.Source, m.Iteration}]++
		perIter[m.Iteration]++
	}
	o := object{name: ev.object, commitAt: ev.at, chunks: len(metas)}
	for it, n := range perIter {
		if n != clients*j.w.Vars {
			j.fail("janitor: %s: iteration %d has %d chunks, want %d", ev.object, it, n, clients*j.w.Vars)
		}
		o.iters = append(o.iters, it)
		j.commitOf[it] = ev.at
	}
	if len(o.iters) == 0 {
		return
	}
	sort.Slice(o.iters, func(a, b int) bool { return o.iters[a] < o.iters[b] })
	j.lowest[o.name] = o.iters[0]
	j.mu.Lock()
	j.retained = append(j.retained, o)
	j.mu.Unlock()
}

// readTOC lists a freshly committed object's chunks. The object store's own
// reader fetches whole parts, which for the header, footer and TOC of every
// object would cost more heap than the pipeline under test spends; the
// janitor therefore reads the few bytes it needs straight from the part
// files of the root it owns. The final read-back goes through Backend.Open.
func (j *janitor) readTOC(name string) ([]dsf.ChunkMeta, error) {
	var ra io.ReaderAt
	var size int64
	if j.w.Backend == "obj" {
		m, err := j.inner.Manifest(name)
		if err != nil {
			return nil, err
		}
		ra, size = partFiles{dir: filepath.Join(j.dir, "blobs"), parts: m.Parts}, m.Size
	} else {
		or, err := j.inner.Open(name)
		if err != nil {
			return nil, err
		}
		defer or.Close()
		ra, size = or, or.Size()
	}
	r, err := dsf.OpenReaderAt(ra, size)
	if err != nil {
		return nil, err
	}
	return r.Chunks(), nil
}

// partFiles is an io.ReaderAt over an object's part blobs on disk.
type partFiles struct {
	dir   string
	parts []store.Part
}

func (p partFiles) ReadAt(b []byte, off int64) (int, error) {
	read := 0
	for _, part := range p.parts {
		if off >= part.Size {
			off -= part.Size
			continue
		}
		if read == len(b) {
			break
		}
		f, err := os.Open(filepath.Join(p.dir, filepath.FromSlash(part.Blob)))
		if err != nil {
			return read, err
		}
		want := b[read:]
		if room := part.Size - off; int64(len(want)) > room {
			want = want[:room]
		}
		n, err := f.ReadAt(want, off)
		f.Close()
		read += n
		if err != nil {
			return read, err
		}
		off = 0
	}
	if read < len(b) {
		return read, io.ErrUnexpectedEOF
	}
	return read, nil
}

// delete removes an object and, on the object store, the parts only it
// references (the iteration stamps make every part unique to its object).
func (j *janitor) delete(name string) error {
	if j.w.Backend != "obj" {
		return j.inner.Delete(name)
	}
	m, err := j.inner.Manifest(name)
	if err != nil {
		return err
	}
	for _, p := range m.Parts {
		if err := j.inner.Delete(p.Blob); err != nil && !errors.Is(err, store.ErrNotExist) {
			return err
		}
	}
	return os.Remove(filepath.Join(j.dir, "manifests", name+".json"))
}

// acks returns, per iteration from `from` on, the milliseconds between the
// last client entering EndIteration and the commit of the object whose TOC
// holds the iteration.
func (j *janitor) acks(endEntry []time.Time, from int) []float64 {
	var out []float64
	for it := from; it < len(endEntry); it++ {
		if at, ok := j.commitOf[int64(it)]; ok {
			out = append(out, ms(at.Sub(endEntry[it])))
		}
	}
	return out
}

// verifyDurableOnce checks that across all TOCs every (variable, source,
// iteration) of the n iterations run appears exactly once, and nothing else.
func (j *janitor) verifyDurableOnce(n int) tally {
	var t tally
	for it := 0; it < n; it++ {
		bad := false
		for c := 0; c < clients; c++ {
			for v := 0; v < j.w.Vars; v++ {
				if j.seen[chunkKey{v, c, int64(it)}] != 1 {
					bad = true
				}
			}
		}
		if bad {
			t.fail("iteration %d is not durable exactly once", it)
		} else {
			t.ok()
		}
	}
	for k := range j.seen {
		if k.iteration < 0 || k.iteration >= int64(n) {
			t.fail("stray chunk %s source %d iteration %d", varName(k.variable), k.source, k.iteration)
		}
	}
	return t
}

// verifyRetained reads every retained object back through Backend.Open and
// compares each decoded chunk with the regenerated, stamped input.
func (j *janitor) verifyRetained(b store.Backend, in inputs) tally {
	var t tally
	for _, o := range j.retained {
		or, err := b.Open(o.name)
		if err != nil {
			t.fail("read-back %s: %v", o.name, err)
			continue
		}
		r, err := dsf.OpenReaderAt(or, or.Size())
		if err != nil {
			t.fail("read-back %s: %v", o.name, err)
			or.Close()
			continue
		}
		for i := 0; i < r.NumChunks(); i++ {
			m, _ := r.Chunk(i)
			data, err := r.ReadChunk(i)
			switch v := j.varIndex(m.Name); {
			case err != nil:
				t.fail("read-back %s chunk %d: %v", o.name, i, err)
			case v < 0 || m.Source < 0 || m.Source >= clients || !matches(data, in[m.Source][v], m.Iteration):
				t.fail("read-back %s chunk %d (%s source %d it %d): bytes differ from the input",
					o.name, i, m.Name, m.Source, m.Iteration)
			default:
				t.ok()
			}
		}
		or.Close()
	}
	return t
}

// linkStoreSpans attaches write-side store spans, recorded by object name,
// to the persist call that produced the object: same rank, same lowest
// iteration.
func (j *janitor) linkStoreSpans(spans []span) {
	for i := range spans {
		s := &spans[i]
		if s.Name != spanCreate && s.Name != spanWrite && s.Name != spanCommit {
			continue
		}
		if lo, ok := j.lowest[s.Object]; ok {
			s.Parent, s.Rank, s.Iter = spanPersist, clients, lo
		}
	}
}

// reader issues gateway reads in a closed loop: the next read starts only
// after the previous one returned (plus think time beside the writers).
type reader struct {
	gw  *gateway.Gateway
	jan *janitor
	in  inputs
	rec *recorder
	rng *rand.Rand
	// first numbers this reader's spans from where an earlier reader of the
	// same segment stopped.
	first int64

	lat   []float64 // milliseconds
	bytes int64
	tally
}

func newReader(gw *gateway.Gateway, jan *janitor, in inputs, rec *recorder, seed, first int64) *reader {
	return &reader{gw: gw, jan: jan, in: in, rec: rec, rng: rand.New(rand.NewSource(seed)), first: first}
}

// one reads one chunk: 70 % from the newest eight objects, 30 % uniformly
// from everything retained. It reports false when nothing is committed yet.
func (r *reader) one() bool {
	r.jan.mu.RLock()
	defer r.jan.mu.RUnlock()
	objs := r.jan.retained
	if len(objs) == 0 {
		return false
	}
	pool := objs
	if len(pool) > 8 && r.rng.Float64() < 0.7 {
		pool = pool[len(pool)-8:]
	}
	o := pool[r.rng.Intn(len(pool))]
	chunk := r.rng.Intn(o.chunks)
	n := r.first + int64(len(r.lat))
	if r.rec != nil {
		r.rec.curRead.Store(n)
	}
	start := time.Now()
	meta, data, err := r.gw.ReadChunk(o.name, chunk)
	end := time.Now()
	if r.rec != nil {
		r.rec.add(span{Name: spanReadChunk, Rank: readerRank, Iter: n, Object: o.name,
			Start: r.rec.since(start), End: r.rec.since(end), Bytes: int64(len(data))})
		r.rec.curRead.Store(-1)
	}
	r.lat = append(r.lat, ms(end.Sub(start)))
	r.bytes += int64(len(data))
	switch v := r.jan.varIndex(meta.Name); {
	case err != nil:
		r.fail("read %s chunk %d: %v", o.name, chunk, err)
	case v < 0 || meta.Source < 0 || meta.Source >= clients || !matches(data, r.in[meta.Source][v], meta.Iteration):
		r.fail("read %s chunk %d: bytes differ from the input", o.name, chunk)
	default:
		r.ok()
	}
	return true
}

// beside reads until the writers are done.
func (r *reader) beside(writersDone <-chan struct{}) {
	for {
		select {
		case <-writersDone:
			return
		default:
		}
		if !r.one() {
			time.Sleep(time.Millisecond)
			continue
		}
		time.Sleep(readThink)
	}
}

// quiet issues n reads back to back with nothing running beside them.
func (r *reader) quiet(n int) {
	for i := 0; i < n && r.one(); i++ {
	}
}
