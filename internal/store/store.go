// Package store is the pluggable storage-backend subsystem behind the
// dedicated core's persistence pipeline. The paper's dedicated-core story
// ends at "gathering data into large files" (§IV-B); this package turns the
// destination of those files into a seam, so the same write-behind
// machinery can drive storage targets with very different latency profiles
// — a local DSF directory or a content-addressed object store.
//
// A Backend exposes two planes:
//
//   - The blob plane: Put/Get/Stat/List/Delete over named immutable blobs.
//     Blobs are write-once; re-putting a name must carry the same bytes
//     (content-addressed callers get this for free), which makes retries
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
// "file:///data/out", "obj:///data/objects", optionally with replica=
// roots — and tuned by Options; Open/OpenWith pick the implementation from
// the scheme. All Backend implementations must be safe for concurrent use
// by multiple persist writers.
package store

import (
	"errors"
	"fmt"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
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
	// DefaultHedgeAfter is the hedge trigger used before enough put-latency
	// samples exist to compute the configured percentile, and the floor under
	// the computed trigger (hedging below it would double-write healthy puts).
	DefaultHedgeAfter = 20 * time.Millisecond
	// DefaultHedgePct is the observed put-latency percentile past which a
	// still-outstanding put is hedged to the next replica target.
	DefaultHedgePct = 95.0
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
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	Stat(name string) (ObjectInfo, error)
	List(prefix string) ([]ObjectInfo, error)
	Delete(name string) error

	// Object plane: streamed writes published by an atomic manifest commit.
	Create(object string) (ObjectWriter, error)
	Open(object string) (ObjectReader, error)
	Objects() ([]ObjectInfo, error)
	Manifest(object string) (*Manifest, error)
	Commit(m *Manifest) error

	// Stats snapshots the backend's operation metrics.
	Stats() Stats
	// Close releases backend resources. Objects committed before Close stay
	// durable.
	Close() error
}

// Options tune a backend at Open time; zero fields select defaults. They
// are the one list of backend options: configuration fills PartSize,
// PutWorkers and PutTimeout from the <store> element (config.StoreOptions),
// the rest keep their defaults outside tests.
type Options struct {
	// PartSize is the objstore multipart split size in bytes (0 = default).
	PartSize int64
	// PutWorkers bounds the parallel part-upload pool (0 = default).
	PutWorkers int
	// PutAttempts is the total tries per part upload, first attempt
	// included (0 = default).
	PutAttempts int
	// PutTimeout is the per-attempt deadline on a blob put (0 = none): a
	// hung storage target converts to a retryable error instead of a
	// forever-stall of the durability watermark.
	PutTimeout time.Duration
	// Replicas lists additional object-store target roots. With at least
	// one replica, part puts and manifest commits that outlast the hedge
	// trigger are re-issued to the next target, first success wins; reads
	// fall back across targets in order.
	Replicas []string
	// ReplicaFaults injects per-op faults into the corresponding replica
	// target (index-aligned with Replicas; nil entries inject nothing).
	// Tests use it to brown out one target while its sibling stays healthy.
	ReplicaFaults []Fault
	// HedgeAfter floors the hedge trigger and serves as the trigger before
	// enough latency samples exist (0 = DefaultHedgeAfter).
	HedgeAfter time.Duration
	// HedgePct is the observed put-latency percentile past which an
	// outstanding put is hedged (0 = DefaultHedgePct).
	HedgePct float64
	// Fault, when non-nil, injects per-op latency and failures — the hook
	// tests and benchmarks use to emulate slow or flaky storage. It applies
	// to the primary target only; replica targets use ReplicaFaults.
	Fault Fault
}

func (o *Options) withDefaults() Options {
	r := *o
	if r.PartSize == 0 {
		r.PartSize = DefaultPartSize
	}
	if r.PutWorkers == 0 {
		r.PutWorkers = DefaultPutWorkers
	}
	if r.PutAttempts == 0 {
		r.PutAttempts = DefaultPutAttempts
	}
	if r.HedgeAfter == 0 {
		r.HedgeAfter = DefaultHedgeAfter
	}
	if r.HedgePct == 0 {
		r.HedgePct = DefaultHedgePct
	}
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
	if o.PutTimeout < 0 {
		return fmt.Errorf("store: negative put timeout %v", o.PutTimeout)
	}
	if o.HedgeAfter < 0 {
		return fmt.Errorf("store: negative hedge delay %v", o.HedgeAfter)
	}
	if o.HedgePct < 0 || o.HedgePct > 100 {
		return fmt.Errorf("store: hedge percentile %v outside [0,100]", o.HedgePct)
	}
	for _, r := range o.Replicas {
		if r == "" {
			return fmt.Errorf("store: empty replica target")
		}
	}
	if len(o.ReplicaFaults) > len(o.Replicas) {
		return fmt.Errorf("store: %d replica faults for %d replicas",
			len(o.ReplicaFaults), len(o.Replicas))
	}
	return nil
}

// parseURL breaks "scheme://root?replica=dir&replica=dir" into its pieces.
// The root is kept verbatim (so "file:///abs/dir" yields "/abs/dir" and
// "file://rel" yields "rel"). A URL says where the data lives — a scheme, a
// root and any replica roots, all deployment paths — and never how the
// backend behaves: that is Options, which configuration fills from the
// <store> element's attributes.
func parseURL(raw string) (scheme, root string, replicas []string, err error) {
	i := strings.Index(raw, "://")
	if i <= 0 {
		return "", "", nil, fmt.Errorf("store: %q is not a backend URL (want scheme://root)", raw)
	}
	scheme = raw[:i]
	root, query, _ := strings.Cut(raw[i+3:], "?")
	if root == "" {
		return "", "", nil, fmt.Errorf("store: backend URL %q has an empty root", raw)
	}
	switch scheme {
	case "file", "obj":
	default:
		return "", "", nil, fmt.Errorf("store: unknown backend scheme %q (known: file, obj)", scheme)
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, _ := strings.Cut(kv, "=")
		switch {
		case kv == "":
		case k != "replica":
			return "", "", nil, fmt.Errorf("store: unknown backend URL parameter %q: a URL takes only replica=; "+
				"sizes and deadlines are <store> attributes (part_size, put_workers, put_timeout)", k)
		case v == "":
			return "", "", nil, fmt.Errorf("store: empty replica target")
		default:
			replicas = append(replicas, v)
		}
	}
	return scheme, root, replicas, nil
}

// Open builds the backend a URL names, with default options.
func Open(rawURL string) (Backend, error) { return OpenWith(rawURL, Options{}) }

// OpenWith builds the backend a URL names, tuned by opts; the URL's replica
// roots follow any opts already lists.
func OpenWith(rawURL string, opts Options) (Backend, error) {
	scheme, root, replicas, err := parseURL(rawURL)
	if err != nil {
		return nil, err
	}
	opts.Replicas = slices.Concat(opts.Replicas, replicas)
	if scheme == "file" {
		return NewFileStore(root, opts)
	}
	return NewObjStore(root, opts)
}

// ValidateURL checks a backend URL without opening it — scheme known, root
// present, no parameter but replica=. Config validation uses it so a bad
// persist_backend fails at load time, not at first flush.
func ValidateURL(rawURL string) error {
	_, _, _, err := parseURL(rawURL)
	return err
}

// tmpCounter is process-wide: several backend instances routinely share one
// root directory (one instance per dedicated core over the same store), so
// temp names must be unique across instances, and the pid keeps separate
// processes on a shared filesystem apart too.
var tmpCounter atomic.Int64

// tmpName returns a temp-file name unique across every backend instance of
// this process. Appended rather than formatted: boxing the counter for fmt
// allocates only once it passes 255, which made what one write allocates
// depend on how many temp files the process had made before it.
func tmpName() string {
	b := strconv.AppendInt(make([]byte, 0, 32), int64(os.Getpid()), 10)
	b = append(b, '-')
	return string(strconv.AppendInt(b, tmpCounter.Add(1), 10))
}

// writeFileSync is os.WriteFile plus an fsync before close, so bytes a
// subsequent rename publishes are durable, not merely buffered.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validName vets a blob or object name: relative, already clean, no "..",
// and no hidden ("."-prefixed) path components, which are reserved for
// backend-internal temporaries.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty name")
	}
	if strings.HasPrefix(name, "/") || strings.Contains(name, "\\") {
		return fmt.Errorf("store: invalid name %q", name)
	}
	if path.Clean(name) != name {
		return fmt.Errorf("store: invalid name %q (not a clean relative path)", name)
	}
	for _, comp := range strings.Split(name, "/") {
		if comp == ".." || strings.HasPrefix(comp, ".") {
			return fmt.Errorf("store: invalid name %q (hidden or parent component)", name)
		}
	}
	return nil
}
