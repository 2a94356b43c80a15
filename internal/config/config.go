// Package config loads and validates the external XML configuration file
// that drives Damaris.
//
// The paper (§III-B, "Configuration file") keeps static dataset metadata out
// of the shared memory: names, descriptions, units, dimensions and the
// actions to run on events are declared once in XML, "directly inspired by
// ADIOS". Clients then send only a minimal descriptor with each write. The
// schema here follows the paper's example:
//
//	<layout   name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
//	<variable name="my_variable" layout="my_layout"/>
//	<event    name="my_event" action="do_something" using="my_plugin.so" scope="local"/>
//
// plus the runtime knobs the paper describes in prose: shared-buffer size
// ("a size chosen by the user"), the allocator choice (mutex vs lock-free),
// and the number of dedicated cores per node.
//
// # Persistence pipeline
//
// The dedicated core's flush path is an asynchronous write-behind pipeline
// (paper §III: I/O overlaps the clients' next compute phase). Four knobs
// shape it, declared on an optional <pipeline> element:
//
//		<pipeline workers="4" queue="8" encode_workers="4" gzip_level="-1"/>
//
//	  - workers (PersistWorkers) is the number of writer goroutines draining
//	    completed iterations. 0 selects the synchronous baseline: the event
//	    loop itself persists each iteration before draining further events
//	    (useful for comparison runs, never for production).
//	  - queue (PersistQueueDepth) bounds the in-flight iteration queue
//	    between the event loop and the writers. When the queue is full the
//	    event loop blocks on submission, exerting backpressure instead of
//	    growing memory without bound. The same depth is the client-side flow
//	    window: clients may run at most `queue` iterations ahead of the last
//	    durably flushed one, so the shared buffer must hold queue+1 write
//	    phases for guaranteed liveness under the mutex allocator.
//	  - encode_workers (EncodeWorkers) sizes the chunk-encode pool shared by
//	    the dedicated core's persist writers: compression/shuffle runs on
//	    that many goroutines in parallel while one streamer appends the
//	    results in deterministic order (paper §IV-D: transformations use the
//	    node's spare cores). 0 encodes serially inside the persist writer —
//	    the pre-pool behavior.
//	  - gzip_level (PersistGzipLevel) is the compress/gzip level for
//	    compressed chunks, the full stdlib range: -2 (HuffmanOnly), -1
//	    (default), 0 (store) through 9 (best).
//
// # Storage backend
//
// Where the pipeline's DSF streams land is selected by an optional <store>
// element naming a backend URL from the internal/store registry:
//
//	<store backend="obj:///data/objects" part_size="4194304" put_workers="4"/>
//
//	  - backend (PersistBackend) is the backend URL: "file://dir" keeps
//	    today's DSF-directory layout; "obj://dir" writes through the
//	    content-addressed object store. Empty selects the file layout over
//	    the deployment's output directory. Unknown schemes are rejected at
//	    load time.
//	  - part_size (StorePartSize) is the object store's multipart split in
//	    bytes (0 = backend default).
//	  - put_workers (StorePutWorkers) bounds the parallel part-upload pool
//	    (0 = backend default).
//	  - put_timeout (StorePutTimeoutMS) is the per-Put deadline in
//	    milliseconds (0 = none): a hung storage target converts to a
//	    retryable error at the deadline instead of stalling the durability
//	    watermark forever.
//
// # Degraded-mode scratch spill
//
// Overload resilience (docs/resilience.md) is selected by an optional
// <spill> element:
//
//	<spill dir="/local/scratch" after="2"/>
//
//	  - dir (SpillDir) is the local directory each dedicated core keeps its
//	    DSF-framed scratch file under. Once the pipeline queue has
//	    backpressured for `after` consecutive iterations, the event loop
//	    diverts the oldest queued iteration into the scratch file (locally
//	    durable, chunks released early) and a background drainer replays it
//	    through the normal store path when the backend recovers. Empty (or
//	    absent element) disables spilling. Requires an asynchronous
//	    pipeline; incompatible with aggregation.
//	  - after (SpillAfter) is the consecutive-backpressure threshold
//	    (absent = DefaultSpillAfter).
//
// # Aggregation
//
// The cross-core / cross-node aggregation layer in front of the storage
// backend (one DSF object per node — or per dedicated aggregator node — per
// flush epoch) is selected by an optional <aggregate> element:
//
//	<aggregate mode="core" ring="8"/>
//
//	  - mode (AggregateMode) selects the tier: "off" (or absent — one DSF
//	    stream per dedicated core, the pre-aggregation behavior,
//	    byte-identical on disk), "core" (the node's dedicated cores fan in to
//	    a deterministically elected leader that commits one object per node
//	    per epoch), or "node" (Damaris 2: node leaders additionally forward
//	    merged epochs to a dedicated aggregator node that commits one object
//	    per epoch for the whole node group).
//	  - ring (AggregateRingDepth) bounds the in-process fan-in ring between
//	    sibling dedicated cores and the leader — the aggregation layer's
//	    backpressure point (0 = default).
//
// # Adaptive control plane
//
// Whether the three pipeline sizes above stay static or are feedback-tuned
// at runtime is selected by an optional <control> element (see
// internal/control and docs/control.md):
//
//	<control mode="auto" interval_ms="250" max_workers="8" max_window="16" max_encode="8"/>
//
//	  - mode (ControlMode) is "static" (or absent — the worker counts and
//	    window depth are exactly the configured knobs, byte-for-byte the
//	    pre-control behavior) or "auto" (a control.Tuner re-sizes the persist
//	    writer pool, the client flow window and the encode pool between
//	    iterations from observed flush/encode/store latency; the configured
//	    knobs become the starting point). Auto requires an asynchronous
//	    pipeline (workers >= 1).
//	  - interval_ms (ControlIntervalMS) is the minimum milliseconds between
//	    controller decisions (0 = control.DefaultInterval).
//	  - max_workers / max_window / max_encode (ControlMaxWriters,
//	    ControlMaxWindow, ControlMaxEncode) bound the tunable range
//	    (0 = package defaults). The controller never moves a size outside
//	    [1, max]; the encode dimension is tuned only for a pool the server
//	    itself owns (externally attached pools may be shared across
//	    servers and are reported but never resized).
package config

import (
	"compress/gzip"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"damaris/internal/layout"
	"damaris/internal/store"
)

// Config is the parsed, validated configuration.
type Config struct {
	// BufferSize is the per-node shared-memory segment size in bytes.
	BufferSize int64
	// Allocator selects the reservation strategy: "mutex" (default) or
	// "lockfree".
	Allocator string
	// DedicatedCores is the number of cores per node reserved for Damaris
	// (the paper uses 1; §V-A discusses several).
	DedicatedCores int
	// PersistWorkers is the number of write-behind persister goroutines
	// per dedicated core; 0 selects the synchronous baseline where the
	// event loop flushes inline.
	PersistWorkers int
	// PersistQueueDepth bounds the in-flight iteration queue feeding the
	// persist workers; it is also the client flow-control window when the
	// pipeline is asynchronous.
	PersistQueueDepth int
	// EncodeWorkers is the size of the per-dedicated-core chunk-encode pool
	// (parallel compression/shuffle feeding a single ordered file streamer);
	// 0 encodes serially inside each persist writer.
	EncodeWorkers int
	// PersistGzipLevel is the compress/gzip level for compressed chunks,
	// accepting the full stdlib range gzip.HuffmanOnly (-2) through 9.
	PersistGzipLevel int
	// PersistBackend is the storage-backend URL DSF streams are persisted
	// through ("file://…", "obj://…"); empty keeps the file layout over the
	// deployment's output directory.
	PersistBackend string
	// StorePartSize is the object store's multipart split size in bytes
	// (0 = backend default).
	StorePartSize int64
	// StorePutWorkers bounds the object store's parallel part-upload pool
	// (0 = backend default).
	StorePutWorkers int
	// StorePutTimeoutMS is the per-Put deadline in milliseconds (0 = none):
	// a hung storage target converts to a retryable error at the deadline
	// instead of stalling the durability watermark forever.
	StorePutTimeoutMS int
	// SpillDir, when non-empty, enables the degraded-mode scratch spill:
	// each dedicated core keeps a local DSF-framed spill file under this
	// directory and diverts iterations into it once the pipeline queue has
	// backpressured for SpillAfter consecutive iterations. Requires an
	// asynchronous pipeline and is incompatible with aggregation.
	SpillDir string
	// SpillAfter is the consecutive-backpressure count that triggers a
	// spill (0 = DefaultSpillAfter).
	SpillAfter int
	// AggregateMode selects the aggregation tier in front of the storage
	// backend: "" or "off" (one DSF stream per dedicated core), "core" (one
	// merged object per node per flush epoch) or "node" (Damaris 2: one
	// object per epoch committed by a dedicated aggregator node).
	AggregateMode string
	// AggregateRingDepth bounds the in-process fan-in ring feeding the
	// aggregation leader (0 = default).
	AggregateRingDepth int
	// ControlMode selects the adaptive control plane: "" or "static" (the
	// sizing knobs above are final — byte-for-byte the pre-control
	// behavior) or "auto" (a feedback controller re-sizes the persist
	// writer pool, flow window and encode pool between iterations).
	ControlMode string
	// ControlIntervalMS is the minimum milliseconds between controller
	// decisions (0 = control.DefaultInterval).
	ControlIntervalMS int
	// ControlMaxWriters / ControlMaxWindow / ControlMaxEncode bound the
	// tunable range in auto mode (0 = control package defaults).
	ControlMaxWriters int
	ControlMaxWindow  int
	ControlMaxEncode  int
	// ShardCount is the number of dedicated-core event-loop shards (0 or 1
	// = the classic single loop, byte-for-byte the pre-sharding behavior).
	// Clients are routed to shards by rank; the effective count is clamped
	// to the client count at deployment.
	ShardCount int
	// ShardMode selects how the shard count is chosen: "" or "static" (use
	// ShardCount as configured) or "auto" (derive the count from the node's
	// spare-core budget at deployment and engage the tuner's
	// oversubscription veto).
	ShardMode string
	// ShardSteal is the queue length above which a push that finds its
	// shard loop running hints a parked sibling, which then steals pending
	// write-notifications from that queue (0 = stealing off; an XML <shards>
	// element without a steal attribute selects DefaultShardSteal).
	ShardSteal int
	// ShardBudget overrides the node spare-core budget that shards auto
	// mode and the tuner's oversubscription veto divide between shard
	// loops, persist writers, and encode workers (0 = derive
	// GOMAXPROCS − clients at deployment when mode is auto).
	ShardBudget int
	// Layouts maps layout names to normalized (C-order) layouts.
	Layouts map[string]layout.Layout
	// Variables maps variable names to their declarations.
	Variables map[string]Variable
	// Events maps event names to the actions they trigger.
	Events map[string]Event
}

// Variable declares a named dataset and the layout its writes follow.
type Variable struct {
	Name        string
	LayoutName  string
	Layout      layout.Layout
	Description string
	Unit        string
}

// Event binds a user signal to an action.
type Event struct {
	Name   string
	Action string // plugin/action name to invoke
	Using  string // plugin library providing the action (informational)
	Scope  string // "local" (per dedicated core) or "global"
}

// xmlFile mirrors the on-disk schema.
type xmlFile struct {
	XMLName  xml.Name      `xml:"simulation"`
	Buffer   xmlBuffer     `xml:"buffer"`
	Pipeline *xmlPipeline  `xml:"pipeline"`
	Store    *xmlStore     `xml:"store"`
	Spill    *xmlSpill     `xml:"spill"`
	Aggr     *xmlAggregate `xml:"aggregate"`
	Control  *xmlControl   `xml:"control"`
	Shards   *xmlShards    `xml:"shards"`
	Layouts  []xmlLayout   `xml:"layout"`
	Vars     []xmlVariable `xml:"variable"`
	Events   []xmlEvent    `xml:"event"`
}

type xmlBuffer struct {
	Size           int64  `xml:"size,attr"`
	Allocator      string `xml:"allocator,attr"`
	DedicatedCores int    `xml:"cores,attr"`
}

// xmlPipeline's attributes are strings so an absent attribute (which
// selects the default) is distinguishable from an explicit "0" — which is
// the synchronous baseline for workers, serial encoding for encode_workers,
// gzip.NoCompression for gzip_level, and an error for queue.
type xmlPipeline struct {
	Workers       string `xml:"workers,attr"`
	Queue         string `xml:"queue,attr"`
	EncodeWorkers string `xml:"encode_workers,attr"`
	GzipLevel     string `xml:"gzip_level,attr"`
}

// xmlStore selects the storage backend; attributes are strings so absent
// (default) is distinguishable from an explicit "0".
type xmlStore struct {
	Backend    string `xml:"backend,attr"`
	PartSize   string `xml:"part_size,attr"`
	PutWorkers string `xml:"put_workers,attr"`
	PutTimeout string `xml:"put_timeout,attr"`
}

// xmlSpill enables the degraded-mode scratch spill; after is a string so
// absent (default) is distinguishable from an explicit value.
type xmlSpill struct {
	Dir   string `xml:"dir,attr"`
	After string `xml:"after,attr"`
}

// xmlAggregate selects the aggregation tier; ring is a string so absent
// (default) is distinguishable from an explicit "0".
type xmlAggregate struct {
	Mode string `xml:"mode,attr"`
	Ring string `xml:"ring,attr"`
}

// xmlControl selects the adaptive control plane; numeric attributes are
// strings so absent (default) is distinguishable from an explicit "0".
type xmlControl struct {
	Mode       string `xml:"mode,attr"`
	IntervalMS string `xml:"interval_ms,attr"`
	MaxWorkers string `xml:"max_workers,attr"`
	MaxWindow  string `xml:"max_window,attr"`
	MaxEncode  string `xml:"max_encode,attr"`
}

// xmlShards shards the dedicated core's event loop; numeric attributes are
// strings so absent (default) is distinguishable from an explicit "0"
// (steal="0" turns work stealing off).
type xmlShards struct {
	Count  string `xml:"count,attr"`
	Mode   string `xml:"mode,attr"`
	Steal  string `xml:"steal,attr"`
	Budget string `xml:"budget,attr"`
}

type xmlLayout struct {
	Name       string `xml:"name,attr"`
	Type       string `xml:"type,attr"`
	Dimensions string `xml:"dimensions,attr"`
	Language   string `xml:"language,attr"`
}

type xmlVariable struct {
	Name        string `xml:"name,attr"`
	Layout      string `xml:"layout,attr"`
	Description string `xml:"description,attr"`
	Unit        string `xml:"unit,attr"`
}

type xmlEvent struct {
	Name   string `xml:"name,attr"`
	Action string `xml:"action,attr"`
	Using  string `xml:"using,attr"`
	Scope  string `xml:"scope,attr"`
}

// Defaults applied when the XML omits optional knobs.
const (
	DefaultBufferSize        = 64 << 20 // 64 MiB per node
	DefaultAllocator         = "mutex"
	DefaultDedicatedCores    = 1
	DefaultPersistWorkers    = 1
	DefaultPersistQueueDepth = 1
	DefaultEncodeWorkers     = 0                       // serial in-writer encoding
	DefaultPersistGzipLevel  = gzip.DefaultCompression // -1
	// DefaultSpillAfter is the consecutive-backpressure count that triggers
	// a scratch spill when <spill> enables one without an explicit after.
	DefaultSpillAfter = 2
	// DefaultShardSteal is the queue length above which pushes to a running
	// shard loop hint a sibling to steal, applied when a <shards> element
	// omits the steal attribute.
	DefaultShardSteal = 4
)

// Parse reads configuration XML from r.
func Parse(r io.Reader) (*Config, error) {
	var f xmlFile
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: parse: %w", err)
	}
	return build(&f)
}

// ParseString parses configuration from an in-memory XML document.
func ParseString(s string) (*Config, error) { return Parse(strings.NewReader(s)) }

// Load reads the configuration file at path.
func Load(path string) (*Config, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer fh.Close()
	return Parse(fh)
}

func build(f *xmlFile) (*Config, error) {
	c := &Config{
		BufferSize:     f.Buffer.Size,
		Allocator:      f.Buffer.Allocator,
		DedicatedCores: f.Buffer.DedicatedCores,
		Layouts:        make(map[string]layout.Layout),
		Variables:      make(map[string]Variable),
		Events:         make(map[string]Event),
	}
	if c.BufferSize == 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.Allocator == "" {
		c.Allocator = DefaultAllocator
	}
	if c.DedicatedCores == 0 {
		c.DedicatedCores = DefaultDedicatedCores
	}

	// Pipeline knobs: absent element means defaults; a present element may
	// explicitly set workers="0" to request the synchronous baseline (and
	// likewise encode_workers="0" for serial encoding, gzip_level="0" for
	// stored gzip streams). Range validation happens in Validate below, so
	// programmatically built configs are held to the same rules.
	c.PersistWorkers = DefaultPersistWorkers
	c.PersistQueueDepth = DefaultPersistQueueDepth
	c.EncodeWorkers = DefaultEncodeWorkers
	c.PersistGzipLevel = DefaultPersistGzipLevel
	if f.Pipeline != nil {
		if f.Pipeline.Workers != "" {
			w, err := strconv.Atoi(f.Pipeline.Workers)
			if err != nil {
				return nil, fmt.Errorf("config: persist worker count %q: %w", f.Pipeline.Workers, err)
			}
			c.PersistWorkers = w
		}
		if f.Pipeline.Queue != "" {
			q, err := strconv.Atoi(f.Pipeline.Queue)
			if err != nil {
				return nil, fmt.Errorf("config: persist queue depth %q: %w", f.Pipeline.Queue, err)
			}
			if q < 1 {
				return nil, fmt.Errorf("config: persist queue depth must be at least 1, got %d", q)
			}
			c.PersistQueueDepth = q
		}
		if f.Pipeline.EncodeWorkers != "" {
			e, err := strconv.Atoi(f.Pipeline.EncodeWorkers)
			if err != nil {
				return nil, fmt.Errorf("config: encode worker count %q: %w", f.Pipeline.EncodeWorkers, err)
			}
			c.EncodeWorkers = e
		}
		if f.Pipeline.GzipLevel != "" {
			l, err := strconv.Atoi(f.Pipeline.GzipLevel)
			if err != nil {
				return nil, fmt.Errorf("config: gzip level %q: %w", f.Pipeline.GzipLevel, err)
			}
			c.PersistGzipLevel = l
		}
	}

	// Control-plane selection.
	if f.Control != nil {
		c.ControlMode = f.Control.Mode
		atoi := func(name, v string, dst *int) error {
			if v == "" {
				return nil
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("config: control %s %q: %w", name, v, err)
			}
			*dst = n
			return nil
		}
		if err := atoi("interval_ms", f.Control.IntervalMS, &c.ControlIntervalMS); err != nil {
			return nil, err
		}
		if err := atoi("max_workers", f.Control.MaxWorkers, &c.ControlMaxWriters); err != nil {
			return nil, err
		}
		if err := atoi("max_window", f.Control.MaxWindow, &c.ControlMaxWindow); err != nil {
			return nil, err
		}
		if err := atoi("max_encode", f.Control.MaxEncode, &c.ControlMaxEncode); err != nil {
			return nil, err
		}
	}

	// Event-loop sharding selection.
	if f.Shards != nil {
		c.ShardMode = f.Shards.Mode
		c.ShardSteal = DefaultShardSteal
		atoi := func(name, v string, dst *int) error {
			if v == "" {
				return nil
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("config: shards %s %q: %w", name, v, err)
			}
			*dst = n
			return nil
		}
		if err := atoi("count", f.Shards.Count, &c.ShardCount); err != nil {
			return nil, err
		}
		if err := atoi("steal", f.Shards.Steal, &c.ShardSteal); err != nil {
			return nil, err
		}
		if err := atoi("budget", f.Shards.Budget, &c.ShardBudget); err != nil {
			return nil, err
		}
	}

	// Aggregation tier selection.
	if f.Aggr != nil {
		c.AggregateMode = f.Aggr.Mode
		if f.Aggr.Ring != "" {
			n, err := strconv.Atoi(f.Aggr.Ring)
			if err != nil {
				return nil, fmt.Errorf("config: aggregate ring depth %q: %w", f.Aggr.Ring, err)
			}
			c.AggregateRingDepth = n
		}
	}

	// Storage backend selection.
	if f.Store != nil {
		c.PersistBackend = f.Store.Backend
		if f.Store.PartSize != "" {
			n, err := strconv.ParseInt(f.Store.PartSize, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("config: store part size %q: %w", f.Store.PartSize, err)
			}
			c.StorePartSize = n
		}
		if f.Store.PutWorkers != "" {
			n, err := strconv.Atoi(f.Store.PutWorkers)
			if err != nil {
				return nil, fmt.Errorf("config: store put worker count %q: %w", f.Store.PutWorkers, err)
			}
			c.StorePutWorkers = n
		}
		if f.Store.PutTimeout != "" {
			n, err := strconv.Atoi(f.Store.PutTimeout)
			if err != nil {
				return nil, fmt.Errorf("config: store put timeout %q: %w", f.Store.PutTimeout, err)
			}
			c.StorePutTimeoutMS = n
		}
	}

	// Degraded-mode scratch spill.
	if f.Spill != nil {
		c.SpillDir = f.Spill.Dir
		c.SpillAfter = DefaultSpillAfter
		if f.Spill.After != "" {
			n, err := strconv.Atoi(f.Spill.After)
			if err != nil {
				return nil, fmt.Errorf("config: spill after %q: %w", f.Spill.After, err)
			}
			c.SpillAfter = n
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	for _, xl := range f.Layouts {
		if xl.Name == "" {
			return nil, fmt.Errorf("config: layout with empty name")
		}
		if _, dup := c.Layouts[xl.Name]; dup {
			return nil, fmt.Errorf("config: duplicate layout %q", xl.Name)
		}
		ty, err := layout.ParseType(xl.Type)
		if err != nil {
			return nil, fmt.Errorf("config: layout %q: %w", xl.Name, err)
		}
		dims, err := layout.ParseDims(xl.Dimensions)
		if err != nil {
			return nil, fmt.Errorf("config: layout %q: %w", xl.Name, err)
		}
		l, err := layout.New(ty, dims...)
		if err != nil {
			return nil, fmt.Errorf("config: layout %q: %w", xl.Name, err)
		}
		// Fortran declares dimensions fastest-varying first; normalize to
		// C order so extents are slowest-first internally (paper's example
		// uses language="fortran").
		if strings.EqualFold(xl.Language, "fortran") {
			l = l.Reverse()
		}
		c.Layouts[xl.Name] = l
	}

	for _, xv := range f.Vars {
		if xv.Name == "" {
			return nil, fmt.Errorf("config: variable with empty name")
		}
		if _, dup := c.Variables[xv.Name]; dup {
			return nil, fmt.Errorf("config: duplicate variable %q", xv.Name)
		}
		l, ok := c.Layouts[xv.Layout]
		if !ok {
			return nil, fmt.Errorf("config: variable %q references unknown layout %q", xv.Name, xv.Layout)
		}
		c.Variables[xv.Name] = Variable{
			Name:        xv.Name,
			LayoutName:  xv.Layout,
			Layout:      l,
			Description: xv.Description,
			Unit:        xv.Unit,
		}
	}

	for _, xe := range f.Events {
		if xe.Name == "" {
			return nil, fmt.Errorf("config: event with empty name")
		}
		if _, dup := c.Events[xe.Name]; dup {
			return nil, fmt.Errorf("config: duplicate event %q", xe.Name)
		}
		if xe.Action == "" {
			return nil, fmt.Errorf("config: event %q has no action", xe.Name)
		}
		scope := xe.Scope
		switch scope {
		case "":
			scope = "local"
		case "local", "global":
		default:
			return nil, fmt.Errorf("config: event %q: unknown scope %q", xe.Name, xe.Scope)
		}
		c.Events[xe.Name] = Event{Name: xe.Name, Action: xe.Action, Using: xe.Using, Scope: scope}
	}
	return c, nil
}

// Validate checks every runtime knob's range, whether the Config came from
// XML or was built (or mutated) programmatically. core.Deploy calls it, so
// a negative worker count or an unknown backend scheme fails deployment
// loudly instead of silently selecting a default behavior.
func (c *Config) Validate() error {
	if c.BufferSize < 0 {
		return fmt.Errorf("config: negative buffer size %d", c.BufferSize)
	}
	switch c.Allocator {
	case "", "mutex", "lockfree":
	default:
		return fmt.Errorf("config: unknown allocator %q (want mutex or lockfree)", c.Allocator)
	}
	if c.DedicatedCores < 0 {
		return fmt.Errorf("config: negative dedicated core count %d", c.DedicatedCores)
	}
	if c.PersistWorkers < 0 {
		return fmt.Errorf("config: negative persist worker count %d", c.PersistWorkers)
	}
	if c.PersistQueueDepth < 0 {
		return fmt.Errorf("config: negative persist queue depth %d", c.PersistQueueDepth)
	}
	if c.PersistWorkers > 0 && c.PersistQueueDepth < 1 {
		return fmt.Errorf("config: persist queue depth must be at least 1 when the pipeline is asynchronous, got %d",
			c.PersistQueueDepth)
	}
	if c.EncodeWorkers < 0 {
		return fmt.Errorf("config: negative encode worker count %d", c.EncodeWorkers)
	}
	if c.PersistGzipLevel < gzip.HuffmanOnly || c.PersistGzipLevel > gzip.BestCompression {
		return fmt.Errorf("config: gzip level %d outside compress/gzip range [%d,%d]",
			c.PersistGzipLevel, gzip.HuffmanOnly, gzip.BestCompression)
	}
	if c.PersistBackend != "" {
		if err := store.ValidateURL(c.PersistBackend); err != nil {
			return fmt.Errorf("config: persist backend: %w", err)
		}
	}
	if c.StorePartSize < 0 {
		return fmt.Errorf("config: negative store part size %d", c.StorePartSize)
	}
	if c.StorePutWorkers < 0 {
		return fmt.Errorf("config: negative store put worker count %d", c.StorePutWorkers)
	}
	if c.StorePutTimeoutMS < 0 {
		return fmt.Errorf("config: negative store put timeout %d ms", c.StorePutTimeoutMS)
	}
	if c.SpillAfter < 0 {
		return fmt.Errorf("config: negative spill threshold %d", c.SpillAfter)
	}
	if c.SpillDir != "" {
		if c.PersistWorkers == 0 {
			return fmt.Errorf("config: scratch spill requires an asynchronous pipeline (persist workers >= 1), got workers=0")
		}
		if c.AggregateMode == "core" || c.AggregateMode == "node" {
			return fmt.Errorf("config: scratch spill is incompatible with aggregation (mode %q): spilled chunks are released before the merge could read them", c.AggregateMode)
		}
	}
	switch c.AggregateMode {
	case "", "off", "core", "node":
	default:
		return fmt.Errorf("config: unknown aggregate mode %q (want off, core or node)", c.AggregateMode)
	}
	if c.AggregateRingDepth < 0 {
		return fmt.Errorf("config: negative aggregate ring depth %d", c.AggregateRingDepth)
	}
	switch c.ControlMode {
	case "", "static", "auto":
	default:
		return fmt.Errorf("config: unknown control mode %q (want static or auto)", c.ControlMode)
	}
	if c.ControlIntervalMS < 0 {
		return fmt.Errorf("config: negative control interval %d ms", c.ControlIntervalMS)
	}
	if c.ControlMaxWriters < 0 || c.ControlMaxWindow < 0 || c.ControlMaxEncode < 0 {
		return fmt.Errorf("config: negative control bound (max_workers=%d max_window=%d max_encode=%d)",
			c.ControlMaxWriters, c.ControlMaxWindow, c.ControlMaxEncode)
	}
	if c.ControlMode == "auto" && c.PersistWorkers == 0 {
		return fmt.Errorf("config: control mode auto requires an asynchronous pipeline (persist workers >= 1), got workers=0")
	}
	switch c.ShardMode {
	case "", "static", "auto":
	default:
		return fmt.Errorf("config: unknown shards mode %q (want static or auto)", c.ShardMode)
	}
	if c.ShardCount < 0 {
		return fmt.Errorf("config: negative shard count %d", c.ShardCount)
	}
	if c.ShardSteal < 0 {
		return fmt.Errorf("config: negative shard steal threshold %d", c.ShardSteal)
	}
	if c.ShardBudget < 0 {
		return fmt.Errorf("config: negative shard spare-core budget %d", c.ShardBudget)
	}
	return nil
}

// ControlAuto reports whether the adaptive control plane is on.
func (c *Config) ControlAuto() bool { return c.ControlMode == "auto" }

// AggregateEnabled reports whether an aggregation tier is selected.
func (c *Config) AggregateEnabled() bool {
	return c.AggregateMode == "core" || c.AggregateMode == "node"
}

// Variable returns the declaration of a named variable.
func (c *Config) Variable(name string) (Variable, bool) {
	v, ok := c.Variables[name]
	return v, ok
}

// Event returns the declaration of a named event.
func (c *Config) Event(name string) (Event, bool) {
	e, ok := c.Events[name]
	return e, ok
}

// PhaseBytesPerClient estimates one client's write-phase volume: the sum of
// every declared variable's layout size. It is an upper estimate (a client
// may write only a subset per iteration), used to derive shared-buffer
// bounds such as the aggregation-aware slowest-sibling rule core.Deploy
// enforces. 0 when no variables are declared.
func (c *Config) PhaseBytesPerClient() int64 {
	var b int64
	for _, v := range c.Variables {
		b += v.Layout.Bytes()
	}
	return b
}

// LayoutOf returns the layout a variable's writes follow.
func (c *Config) LayoutOf(varName string) (layout.Layout, bool) {
	v, ok := c.Variables[varName]
	if !ok {
		return layout.Layout{}, false
	}
	return v.Layout, true
}
