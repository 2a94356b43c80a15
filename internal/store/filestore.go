package store

import (
	"fmt"
	"os"
	"time"
)

// FileStore is the "file" backend: today's DSF-directory layout, promoted
// to one backend among peers. Every object (or blob) is a plain file under
// the root directory, named exactly as the object — so a directory written
// through a FileStore is byte-identical to what the pre-backend persister
// produced, and stays readable by dsf.OpenCollection and plain tools.
//
// The backend is one tree: objects are its files, temporaries are hidden
// ".tmp-*" files in the root. Objects are single-part: Create streams into
// a temp file and Commit publishes it, which is this backend's
// atomic-visibility protocol (the rename plays the role the manifest commit
// plays in the object store). Manifests are synthesized from the files
// themselves.
type FileStore struct {
	t       tree
	metrics metrics
}

// NewFileStore opens (creating if needed) a file backend rooted at dir.
func NewFileStore(dir string, opts Options) (*FileStore, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: file backend: %w", err)
	}
	return &FileStore{
		t:       tree{root: dir, tmpDir: dir, tmpPrefix: ".tmp-", fault: opts.Fault},
		metrics: metrics{Stats: Stats{Scheme: "file"}},
	}, nil
}

// Put stores one immutable blob as a file under the root.
func (s *FileStore) Put(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	// Timer before the fault hook: injected latency models the storage
	// target and belongs in PutLatency.
	start := time.Now()
	if err := s.t.put(OpPut, name, data); err != nil {
		return s.metrics.failed(err)
	}
	s.metrics.put(time.Since(start).Seconds(), int64(len(data)))
	return nil
}

// Get reads a blob back.
func (s *FileStore) Get(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := s.t.read(name)
	if err != nil {
		return nil, s.metrics.failed(err)
	}
	s.metrics.get(time.Since(start).Seconds(), int64(len(b)))
	return b, nil
}

// Stat reports a blob's size.
func (s *FileStore) Stat(name string) (ObjectInfo, error) {
	if err := validName(name); err != nil {
		return ObjectInfo{}, err
	}
	fi, err := s.t.stat(name)
	if err != nil {
		return ObjectInfo{}, s.metrics.failed(err)
	}
	return ObjectInfo{Name: name, Size: fi.Size()}, nil
}

// List returns the blobs whose names start with prefix, sorted. Hidden
// files (backend temporaries) never appear.
func (s *FileStore) List(prefix string) ([]ObjectInfo, error) {
	if err := opFault(s.t.fault, OpList, prefix); err != nil {
		return nil, s.metrics.failed(err)
	}
	out, err := list(prefix, &s.t)
	return out, s.metrics.failed(err)
}

// Delete removes a blob.
func (s *FileStore) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := s.t.remove(name); err != nil {
		return s.metrics.failed(err)
	}
	s.metrics.inc(&s.metrics.Deletes)
	return nil
}

// Create opens an object for streaming. The bytes land in a hidden temp
// file; Commit publishes it under the object's name.
func (s *FileStore) Create(object string) (ObjectWriter, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	if err := opFault(s.t.fault, OpPut, object); err != nil {
		return nil, s.metrics.failed(err)
	}
	tmp := s.t.tmp()
	f, err := os.Create(tmp)
	if err != nil {
		return nil, s.metrics.failed(fmt.Errorf("store: create %q: %w", object, err))
	}
	return &fileObjWriter{s: s, object: object, f: f, tmp: tmp, start: time.Now()}, nil
}

type fileObjWriter struct {
	s      *FileStore
	object string
	f      *os.File
	tmp    string
	size   int64
	start  time.Time
	done   bool
}

func (w *fileObjWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("store: write on finished object %q", w.object)
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

func (w *fileObjWriter) Commit() (*Manifest, error) {
	if w.done {
		return nil, fmt.Errorf("store: object %q already finished", w.object)
	}
	w.done = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(w.tmp)
		return nil, w.s.metrics.failed(fmt.Errorf("store: commit %q: %w", w.object, err))
	}
	// A fault here is a simulated crash before publish: the temp file stays
	// torn and the object stays invisible.
	if err := w.s.t.publish(w.tmp, w.object, OpCommit); err != nil {
		return nil, w.s.metrics.failed(err)
	}
	w.s.metrics.put(time.Since(w.start).Seconds(), w.size)
	w.s.metrics.inc(&w.s.metrics.Commits)
	return fileManifest(w.object, w.size), nil
}

func (w *fileObjWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	return os.Remove(w.tmp)
}

// fileManifest synthesizes the single-part manifest of a file-backed object.
func fileManifest(object string, size int64) *Manifest {
	return &Manifest{Object: object, Size: size, Parts: []Part{{Blob: object, Size: size}}}
}

// Open returns random access over a committed object.
func (s *FileStore) Open(object string) (ObjectReader, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	f, size, err := s.t.open(OpOpen, object)
	if err != nil {
		return nil, s.metrics.failed(err)
	}
	return &fileObjReader{s: s, f: f, size: size}, nil
}

type fileObjReader struct {
	s    *FileStore
	f    *os.File
	size int64
}

func (r *fileObjReader) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := r.f.ReadAt(p, off)
	r.s.metrics.get(time.Since(start).Seconds(), int64(n))
	return n, err
}

func (r *fileObjReader) Size() int64  { return r.size }
func (r *fileObjReader) Close() error { return r.f.Close() }

// StatObject reports the object's revalidation signature: for this backend
// the file itself is what commits the object, so its size and mtime are the
// signature.
func (s *FileStore) StatObject(object string) (ObjectStat, error) {
	if err := validName(object); err != nil {
		return ObjectStat{}, err
	}
	fi, err := s.t.stat(object)
	if err != nil {
		return ObjectStat{}, s.metrics.failed(err)
	}
	return ObjectStat{Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// Objects lists the committed objects — every visible file under the root.
func (s *FileStore) Objects() ([]ObjectInfo, error) { return s.List("") }

// Manifest synthesizes the manifest of a committed object: one part, the
// file itself.
func (s *FileStore) Manifest(object string) (*Manifest, error) {
	info, err := s.Stat(object)
	if err != nil {
		return nil, err
	}
	return fileManifest(object, info.Size), nil
}

// Commit validates a manifest against the files on disk. The rename in
// ObjectWriter.Commit already made the object visible, so there is nothing
// to publish — this exists so manifest-level callers can treat both
// backends uniformly.
func (s *FileStore) Commit(m *Manifest) error {
	if m == nil || m.Object == "" {
		return fmt.Errorf("store: commit without an object name")
	}
	if err := opFault(s.t.fault, OpCommit, m.Object); err != nil {
		return s.metrics.failed(err)
	}
	for _, p := range m.Parts {
		if _, err := s.Stat(p.Blob); err != nil {
			return fmt.Errorf("store: commit %q: part %q: %w", m.Object, p.Blob, err)
		}
	}
	s.metrics.inc(&s.metrics.Commits)
	return nil
}

// Stats snapshots the backend metrics.
func (s *FileStore) Stats() Stats { return s.metrics.snapshot() }

// Close is a no-op: the file backend holds no resources between calls.
func (s *FileStore) Close() error { return nil }
