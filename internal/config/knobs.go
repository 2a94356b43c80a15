package config

import (
	"compress/gzip"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

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
)

// knob is one runtime setting: where the XML spells it, which damaris-run
// flag sets it, the Config field it lands in, its default and its range.
type knob struct {
	elem, attr string // <elem attr="…"> under <simulation>
	flag       string // damaris-run flag; "" when the knob has none

	// The Config field: exactly one of i, i64 and s is set.
	i   *int
	i64 *int64
	s   *string

	def      int64    // default of a numeric knob
	sdef     string   // default of a string knob
	min, max int64    // range of a numeric knob; max 0 = no upper bound
	enum     []string // what a string knob accepts besides ""; nil = anything
	help     string   // one line, shown by damaris-run -h
}

// knobs is the one declaration of every runtime knob: Parse reads the XML
// through it, Validate takes the per-field checks from it, BindFlags the
// damaris-run flags, and a test holds the tables in docs/ to it. A default
// is what an attribute absent from a present element gets, and what the
// flag starts from. <buffer> and <pipeline> take theirs even when the
// element is absent; the other elements switch a feature on, so absent
// leaves their fields zero.
func (c *Config) knobs() []knob {
	return []knob{
		{elem: "buffer", attr: "size", i64: &c.BufferSize, def: DefaultBufferSize, help: "per-node shared-memory segment in bytes"},
		{elem: "buffer", attr: "allocator", flag: "allocator", s: &c.Allocator, sdef: DefaultAllocator, enum: []string{"mutex", "lockfree"},
			help: "shared-memory allocator: mutex | lockfree"},
		{elem: "buffer", attr: "cores", i: &c.DedicatedCores, def: DefaultDedicatedCores, help: "dedicated cores per node"},

		{elem: "pipeline", attr: "workers", flag: "persist-workers", i: &c.PersistWorkers, def: DefaultPersistWorkers,
			help: "write-behind persist workers per dedicated core (0 = the pipeline persists inline on the event loop)"},
		{elem: "pipeline", attr: "queue", flag: "persist-queue", i: &c.PersistQueueDepth, def: DefaultPersistQueueDepth,
			help: "in-flight iteration queue depth; also the client flow window when async, so the buffer must hold queue+1 write phases"},
		{elem: "pipeline", attr: "encode_workers", flag: "encode-workers", i: &c.EncodeWorkers, def: DefaultEncodeWorkers,
			help: "parallel chunk-encode workers per dedicated core (0 = serial encoding inside each persist writer)"},
		{elem: "pipeline", attr: "gzip_level", flag: "gzip-level", i: &c.PersistGzipLevel, def: DefaultPersistGzipLevel,
			min: gzip.HuffmanOnly, max: gzip.BestCompression, help: "gzip level for compressed chunks: -2 (HuffmanOnly) to 9"},

		{elem: "store", attr: "backend", flag: "persist-backend", s: &c.PersistBackend,
			help: "storage backend URL: file://dir | obj://dir (empty = DSF files in the output directory)"},
		{elem: "store", attr: "part_size", flag: "store-part-size", i64: &c.StorePartSize, help: "object-store multipart split in bytes (0 = backend default)"},
		{elem: "store", attr: "put_workers", flag: "store-put-workers", i: &c.StorePutWorkers, help: "parallel part-upload pool size (0 = backend default)"},
		{elem: "store", attr: "put_timeout", flag: "store-put-timeout", i: &c.StorePutTimeoutMS,
			help: "per-part put deadline in milliseconds; a hung target becomes a retryable timeout (0 = no deadline)"},

		{elem: "spill", attr: "dir", flag: "spill-dir", s: &c.SpillDir, help: "local scratch directory for degraded-mode spill (empty = no spill)"},
		{elem: "spill", attr: "after", flag: "spill-after", i: &c.SpillAfter, def: DefaultSpillAfter,
			help: "consecutive backpressured iterations before the event loop spills to scratch"},

		{elem: "aggregate", attr: "mode", flag: "aggregate", s: &c.AggregateMode, sdef: "off", enum: []string{"off", "core"},
			help: "aggregation in front of the storage backend: off (one DSF stream per dedicated core) | core (one object per node per epoch)"},
		{elem: "aggregate", attr: "ring", flag: "aggregate-ring", i: &c.AggregateRingDepth, help: "fan-in ring depth between sibling cores and the aggregation leader (0 = default)"},

		{elem: "shards", attr: "count", flag: "shards", i: &c.ShardCount, help: "event-loop shards per dedicated core (0 or 1 = the classic single loop)"},
	}
}

// num reads a numeric knob's field.
func (k *knob) num() int64 {
	if k.i != nil {
		return int64(*k.i)
	}
	return *k.i64
}

// set stores an attribute's text into the knob's field.
func (k *knob) set(v string) (err error) {
	switch {
	case k.s != nil:
		*k.s = v
	case k.i != nil:
		*k.i, err = strconv.Atoi(v)
	default:
		*k.i64, err = strconv.ParseInt(v, 10, 64)
	}
	return err
}

func (k *knob) setDefault() {
	switch {
	case k.s != nil:
		*k.s = k.sdef
	case k.i != nil:
		*k.i = int(k.def)
	default:
		*k.i64 = k.def
	}
}

// check holds the field to the knob's range or allowed values. The zero
// string always passes: it is what a programmatically built Config and an
// absent element carry.
func (k *knob) check() error {
	if k.s != nil {
		if k.enum != nil && *k.s != "" && !slices.Contains(k.enum, *k.s) {
			return fmt.Errorf("config: %s is %q: want %s", k.name(), *k.s, strings.Join(k.enum, " | "))
		}
		return nil
	}
	if n := k.num(); n < k.min {
		return fmt.Errorf("config: %s is %d: must be at least %d", k.name(), n, k.min)
	} else if k.max != 0 && n > k.max {
		return fmt.Errorf("config: %s is %d: must be at most %d", k.name(), n, k.max)
	}
	return nil
}

// name spells the knob both ways a user can have set it.
func (k *knob) name() string {
	if k.flag == "" {
		return fmt.Sprintf("<%s %s>", k.elem, k.attr)
	}
	return fmt.Sprintf("<%s %s> (-%s)", k.elem, k.attr, k.flag)
}

// BindFlags declares on fs one flag for every knob that has one, each
// starting from the knob's default and writing straight into c. Validate c
// after fs.Parse.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	for _, k := range c.knobs() {
		switch {
		case k.flag == "":
		case k.s != nil:
			fs.StringVar(k.s, k.flag, k.sdef, k.help)
		case k.i64 != nil:
			fs.Int64Var(k.i64, k.flag, k.def, k.help)
		default:
			fs.IntVar(k.i, k.flag, int(k.def), k.help)
		}
	}
}
