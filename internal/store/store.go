// Package store is the pluggable storage-backend subsystem behind the
// dedicated core's persistence pipeline. The paper's dedicated-core story
// ends at "gathering data into large files" (§IV-B); this package turns the
// destination of those files into a seam, so the same write-behind
// machinery can drive storage targets with very different latency profiles
// — a local DSF directory or a content-addressed object store.
//
// A Backend exposes two planes:
//
//   - The blob plane: Get/ReadPartAt/Stat/Delete over named immutable
//     blobs. Blobs come into being only as an object's parts (or, for the
//     file backend, as its objects); re-landing a name must carry the same
//     bytes (content addressing gives this for free), which makes retries
//     idempotent.
//   - The object plane: Create streams one logical object (for Damaris, one
//     encoded DSF file) into the backend and Commit publishes a manifest
//     describing its parts. The manifest is written last and atomically, so
//     a crash mid-upload leaves no visible torn object: readers only ever
//     see objects whose every byte is already durable.
//
// Both backends are built on one unexported primitive, tree (tree.go): a
// directory of immutable files whose only way in is write-temp, fsync,
// rename. A backend is named by a URL that says where it lives —
// "file:///data/out" or "obj:///data/objects" — and tuned by Options;
// Open/OpenWith pick the implementation from the scheme. All Backend
// implementations must be safe for concurrent use by multiple persist
// writers.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Tuning defaults, used when Options leave a knob zero.
const (
	// DefaultPartSize is the objstore multipart split size. 4 MiB mirrors
	// common object-store multipart minimums while keeping several parts in
	// flight for typical per-iteration DSF files.
	DefaultPartSize = 4 << 20
	// DefaultPutWorkers bounds the parallel multipart upload pool.
	DefaultPutWorkers = 4
	// DefaultPutAttempts is the total tries per part upload (1 first
	// attempt + retries). Content addressing makes every retry idempotent.
	DefaultPutAttempts = 3
)

// ErrNotExist reports a blob, object or manifest that is not (visibly)
// present. Crash-interrupted uploads look like this by design: without a
// committed manifest the object does not exist.
var ErrNotExist = errors.New("store: does not exist")

// ObjectInfo describes one blob or committed object.
type ObjectInfo struct {
	Name string
	Size int64
}

// Part is one fixed-size piece of an object's byte stream, stored as a blob.
type Part struct {
	// Blob is the blob-plane name holding this part's bytes.
	Blob string `json:"blob"`
	// Size is the part length in bytes.
	Size int64 `json:"size"`
	// SHA256 is the hex digest of the part's content when the backend is
	// content-addressed (empty for backends that store objects whole).
	SHA256 string `json:"sha256,omitempty"`
}

// Manifest describes one committed object: the ordered parts whose
// concatenation is the object's byte stream. Committing the manifest is
// what makes the object visible; every part must be durable first.
type Manifest struct {
	Object string `json:"object"`
	Size   int64  `json:"size"`
	Parts  []Part `json:"parts"`
}

// ObjectWriter streams one object into a backend. Bytes written are not
// visible to readers until Commit returns; Abort discards the attempt
// (already-uploaded content-addressed parts may remain as invisible blobs,
// where they seed dedupe for the retry).
type ObjectWriter interface {
	// Write appends to the object's byte stream. It may block when the
	// backend's upload pool is saturated — that backpressure is what bounds
	// the writer's memory.
	Write(p []byte) (int, error)
	// WritePinned is Write for bytes the caller leaves unmodified until
	// Commit or Abort returns: the backend may hash and store p where it
	// lies instead of copying it.
	WritePinned(p []byte) (int, error)
	// Commit makes the object durable and atomically visible, returning its
	// manifest. No Write may follow.
	Commit() (*Manifest, error)
	// Abort abandons the object; it stays invisible.
	Abort() error
}

// ObjectReader is random-access over one committed object's byte stream.
type ObjectReader interface {
	ReadAt(p []byte, off int64) (int, error)
	Size() int64
	Close() error
}

// PartCache and CachedOpener have no implementation or caller in the
// middleware any more; they stay declared only because bench/ still names
// them, and go when a benchmark PR drops those references.
type PartCache interface {
	GetPart(key string) ([]byte, bool)
	AddPart(key string, data []byte)
}

type CachedOpener interface {
	OpenCached(object string, cache PartCache) (ObjectReader, error)
}

// PartCacheKey is the cache key of one manifest part: the content digest
// when the backend is content-addressed (one cached part then serves every
// object referencing it), the blob name otherwise.
func PartCacheKey(p Part) string {
	if p.SHA256 != "" {
		return "sha256:" + p.SHA256
	}
	return "blob:" + p.Blob
}

// ObjectStat is a committed object's revalidation signature: the size and
// modification time of whatever artifact makes the object visible (the
// manifest file for the object store, the object file itself for the file
// backend). Equal signatures mean the object is unchanged; any difference
// invalidates caches built over it.
type ObjectStat struct {
	Size    int64
	ModTime time.Time
}

// ObjectStater is implemented by backends that can report an object's
// revalidation signature without reading object data — the cheap probe
// cache layers revalidate with.
type ObjectStater interface {
	StatObject(object string) (ObjectStat, error)
}

// Backend is the storage seam every persistence target implements.
type Backend interface {
	// Blob plane: named immutable blobs.
	Get(name string) ([]byte, error)
	// ReadPartAt fills p from offset off of one manifest part's blob: exact
	// bytes, under Get's fault hook, and an error if the blob is not part.Size.
	ReadPartAt(part Part, p []byte, off int64) (int, error)
	Stat(name string) (ObjectInfo, error)
	Delete(name string) error

	// Object plane: streamed writes published by an atomic manifest commit.
	Create(object string) (ObjectWriter, error)
	Open(object string) (ObjectReader, error)
	Objects() ([]ObjectInfo, error)
	Manifest(object string) (*Manifest, error)
	Commit(m *Manifest) error

	// Stats snapshots the backend's operation metrics.
	Stats() Stats
	// Close releases backend resources; an operation after it fails.
	// Objects committed before Close stay durable.
	Close() error
}

// Options tune a backend at Open time; zero fields select defaults. They
// are the one list of backend options: configuration fills PartSize and
// PutWorkers from the <store> element (config.StoreOptions), the rest keep
// their defaults outside tests.
type Options struct {
	// PartSize is the objstore multipart split size in bytes (0 = default).
	PartSize int64
	// PutWorkers bounds the parallel part-upload pool (0 = default).
	PutWorkers int
	// PutAttempts is the total tries per part upload, first attempt
	// included (0 = default).
	PutAttempts int
	// Fault, when non-nil, injects per-op latency and failures — the hook
	// tests and benchmarks use to emulate slow or flaky storage.
	Fault Fault
}

func (o *Options) withDefaults() Options {
	r := *o
	r.PartSize = cmp.Or(r.PartSize, DefaultPartSize)
	r.PutWorkers = cmp.Or(r.PutWorkers, DefaultPutWorkers)
	r.PutAttempts = cmp.Or(r.PutAttempts, DefaultPutAttempts)
	return r
}

func (o *Options) validate() error {
	if o.PartSize < 0 {
		return fmt.Errorf("store: negative part size %d", o.PartSize)
	}
	if o.PutWorkers < 0 {
		return fmt.Errorf("store: negative put worker count %d", o.PutWorkers)
	}
	if o.PutAttempts < 0 {
		return fmt.Errorf("store: negative put attempt count %d", o.PutAttempts)
	}
	return nil
}

// parseURL breaks "scheme://root" into its pieces. The root is kept
// verbatim (so "file:///abs/dir" yields "/abs/dir" and "file://rel" yields
// "rel"). A URL says where the data lives and never how the backend
// behaves: that is Options, which configuration fills from the <store>
// element's attributes, so a URL with a query is refused.
func parseURL(raw string) (scheme, root string, err error) {
	i := strings.Index(raw, "://")
	if i <= 0 {
		return "", "", fmt.Errorf("store: %q is not a backend URL (want scheme://root)", raw)
	}
	scheme = raw[:i]
	root, query, hasQuery := strings.Cut(raw[i+3:], "?")
	if root == "" {
		return "", "", fmt.Errorf("store: backend URL %q has an empty root", raw)
	}
	switch scheme {
	case "file", "obj":
	default:
		return "", "", fmt.Errorf("store: unknown backend scheme %q (known: file, obj)", scheme)
	}
	if hasQuery {
		return "", "", fmt.Errorf("store: backend URL %q has a query %q: a URL is scheme://root; "+
			"sizes are <store> attributes (part_size, put_workers)", raw, query)
	}
	return scheme, root, nil
}

// Open builds the backend a URL names, with default options.
func Open(rawURL string) (Backend, error) { return OpenWith(rawURL, Options{}) }

// OpenWith builds the backend a URL names, tuned by opts.
func OpenWith(rawURL string, opts Options) (Backend, error) {
	scheme, root, err := parseURL(rawURL)
	if err != nil {
		return nil, err
	}
	if scheme == "file" {
		return NewFileStore(root, opts)
	}
	return NewObjStore(root, opts)
}

// ValidateURL checks a backend URL without opening it — scheme known, root
// present, no query. Config validation uses it so a bad persist_backend
// fails at load time, not at first flush.
func ValidateURL(rawURL string) error {
	_, _, err := parseURL(rawURL)
	return err
}

// tmpCounter and tmpPid name temp files (tmpName.at). The counter is
// process-wide: several backend instances routinely share one root
// directory (one instance per dedicated core over the same store), so temp
// names must be unique across instances, and the pid, read once, keeps
// separate processes on a shared filesystem apart too.
var (
	tmpCounter atomic.Int64
	tmpPid     = strconv.Itoa(os.Getpid())
)

// validName vets a blob or object name: valid UTF-8 (a JSON manifest would
// store any other name as another one), no NUL (the kernel would read the
// name only up to it), relative, already clean, no "..",
// and no hidden ("."-prefixed) path components, which are reserved for
// backend-internal temporaries.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty name")
	}
	if strings.HasPrefix(name, "/") || strings.ContainsAny(name, "\\\x00") || !utf8.ValidString(name) {
		return fmt.Errorf("store: invalid name %q", name)
	}
	if path.Clean(name) != name {
		return fmt.Errorf("store: invalid name %q (not a clean relative path)", name)
	}
	// A component starting with "." (".." included) starts the name or
	// follows a slash.
	if name[0] == '.' || strings.Contains(name, "/.") {
		return fmt.Errorf("store: invalid name %q (hidden or parent component)", name)
	}
	return nil
}
