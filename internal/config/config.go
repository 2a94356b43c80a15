// Package config loads and validates the external XML configuration file
// that drives Damaris.
//
// The paper (§III-B, "Configuration file") keeps static dataset metadata out
// of the shared memory: names, descriptions, units, dimensions and the
// actions to run on events are declared once in XML, "directly inspired by
// ADIOS". Clients then send only a minimal descriptor with each write. The
// schema follows the paper's example, plus one optional element per group of
// runtime knobs the paper describes in prose:
//
//	<simulation>
//	  <buffer    size="67108864" allocator="mutex" cores="1"/>
//	  <pipeline  workers="4" queue="8" encode_workers="4" gzip_level="-1" codec="shuffle+gzip"/>
//	  <store     backend="obj:///data/objects" part_size="4194304" put_workers="4"/>
//	  <spill     dir="/local/scratch" after="2"/>
//	  <aggregate mode="core"/>
//	  <shards    count="4"/>
//	  <layout    name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
//	  <variable  name="my_variable" layout="my_layout"/>
//	  <event     name="my_event" action="do_something" using="my_plugin.so" scope="local"/>
//	</simulation>
//
// The <store> attributes are the only way a run sets a backend option: the
// backend URL names a place (scheme and root) and takes no parameter.
//
// Every knob attribute is declared once, in the table (*Config).knobs in
// knobs.go: its element and attribute, the damaris-run flag that sets it,
// the Config field it lands in, its default, its range and a help line.
// Parse, Validate and BindFlags all walk that table, so an attribute or
// element the table does not name is an error, not a silent default.
// docs/{dsf,store,resilience,aggregate,sharding}.md say what each
// group of knobs is for.
package config

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
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
	// per dedicated core, at least 1.
	PersistWorkers int
	// PersistQueueDepth bounds the in-flight iteration queue feeding the
	// persist workers, at least 1; it is also the client flow-control window
	// (with SpillDir set the window is what the shared buffer holds instead,
	// see core.Deploy).
	PersistQueueDepth int
	// EncodeWorkers is the size of the per-dedicated-core chunk-encode pool
	// (parallel compression/shuffle feeding a single ordered file streamer);
	// 0 encodes serially inside each persist writer.
	EncodeWorkers int
	// PersistGzipLevel is the compress/gzip level for compressed chunks,
	// accepting the full stdlib range gzip.HuffmanOnly (-2) through 9.
	PersistGzipLevel int
	// PersistCodec names the codec every persisted chunk is encoded with:
	// "none" (or "") or "shuffle+gzip" (dsf.CodecNamed).
	PersistCodec string
	// PersistBackend is the storage-backend URL every persisted DSF stream
	// goes to ("file://…", "obj://…"): the one name of the destination. A
	// deployment without its own persister needs it.
	PersistBackend string
	// StorePartSize is the object store's multipart split size in bytes
	// (0 = backend default).
	StorePartSize int64
	// StorePutWorkers bounds the object store's parallel part-upload pool
	// (0 = backend default).
	StorePutWorkers int
	// SpillDir, when non-empty, enables the degraded-mode scratch spill:
	// each dedicated core keeps a local file:// store in a hidden directory
	// under this one (.spill-nodeNNNN_srvNNNN, which no listing of SpillDir
	// shows) and commits iterations to it as DSF objects once the pipeline
	// queue has backpressured for SpillAfter consecutive iterations.
	// Incompatible with aggregation.
	SpillDir string
	// SpillAfter is the consecutive-backpressure count that triggers a
	// spill (0 = DefaultSpillAfter).
	SpillAfter int
	// AggregateMode selects the aggregation in front of the storage
	// backend: "" or "off" (one DSF stream per dedicated core) or "core"
	// (one merged object per node per flush epoch).
	AggregateMode string
	// ShardCount is the number of dedicated-core event-loop shards (0 or 1
	// = the classic single loop, byte-for-byte the pre-sharding behavior).
	// Clients are routed to shards by rank; the effective count is clamped
	// to the client count at deployment.
	ShardCount int
	// Layouts maps layout names to normalized (C-order) layouts.
	Layouts map[string]layout.Layout
	// Variables maps variable names to their declarations.
	Variables map[string]Variable
	// Events maps event names to the actions they trigger.
	Events map[string]Event
}

// Variable declares a named dataset and the layout its writes follow. The
// <variable> element's description and unit attributes are accepted and
// not kept: nothing reads them.
type Variable struct {
	Layout layout.Layout
}

// Event binds a user signal to an action. The <event> element's using
// attribute (the plugin library, informational) is accepted and not kept.
type Event struct {
	Action string // plugin/action name to invoke
	Scope  string // "local" (per dedicated core) or "global"
}

// xmlFile mirrors the on-disk schema. layout, variable and event have fixed
// attribute lists; every other child of <simulation> lands in Knobs and must
// be an element of the knob table.
type xmlFile struct {
	XMLName xml.Name      `xml:"simulation"`
	Layouts []xmlLayout   `xml:"layout"`
	Vars    []xmlVariable `xml:"variable"`
	Events  []xmlEvent    `xml:"event"`
	Knobs   []struct {
		XMLName xml.Name
		Attrs   []xml.Attr `xml:",any,attr"`
	} `xml:",any"`
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

func build(f *xmlFile) (*Config, error) {
	c := &Config{
		Layouts:   make(map[string]layout.Layout),
		Variables: make(map[string]Variable),
		Events:    make(map[string]Event),
	}
	if err := c.readKnobs(f); err != nil {
		return nil, err
	}
	// Range validation happens in Validate, so programmatically built
	// configs are held to the same rules.
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
		if strings.Contains(xv.Name, ":") {
			// "stats:<var>" and the like name what actions add to an
			// iteration; a declared variable must not collide with them.
			return nil, fmt.Errorf("config: variable %q: ':' is reserved for action products", xv.Name)
		}
		if _, dup := c.Variables[xv.Name]; dup {
			return nil, fmt.Errorf("config: duplicate variable %q", xv.Name)
		}
		l, ok := c.Layouts[xv.Layout]
		if !ok {
			return nil, fmt.Errorf("config: variable %q references unknown layout %q", xv.Name, xv.Layout)
		}
		c.Variables[xv.Name] = Variable{Layout: l}
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
		c.Events[xe.Name] = Event{Action: xe.Action, Scope: scope}
	}
	return c, nil
}

// readKnobs sets every knob from the document's knob elements. An absent
// attribute keeps the knob's default; one that is written is read, so an
// explicit "0" means 0 and an empty number is an error.
func (c *Config) readKnobs(f *xmlFile) error {
	knobs := c.knobs()
	// start gives an element's knobs their defaults and returns the
	// attributes it accepts: none for an element the table does not have.
	start := func(elem string) (attrs []string) {
		for i := range knobs {
			if knobs[i].elem == elem {
				knobs[i].setDefault()
				attrs = append(attrs, knobs[i].attr)
			}
		}
		return attrs
	}
	start("buffer")
	start("pipeline")
	seen := map[string]bool{}
	for _, e := range f.Knobs {
		elem := e.XMLName.Local
		attrs := start(elem)
		if attrs == nil {
			var elems []string
			for _, k := range knobs {
				elems = append(elems, k.elem)
			}
			return fmt.Errorf("config: unknown element <%s> under <simulation> (want %s, layout, variable or event)",
				elem, strings.Join(slices.Compact(elems), ", "))
		}
		if seen[elem] {
			return fmt.Errorf("config: more than one <%s> element", elem)
		}
		seen[elem] = true
		for _, a := range e.Attrs {
			i := slices.IndexFunc(knobs, func(k knob) bool { return k.elem == elem && k.attr == a.Name.Local })
			if i < 0 {
				return fmt.Errorf("config: <%s> has no attribute %q (want %s)",
					elem, a.Name.Local, strings.Join(attrs, ", "))
			}
			if err := knobs[i].set(a.Value); err != nil {
				return fmt.Errorf("config: <%s %s=%q>: %w", elem, a.Name.Local, a.Value, err)
			}
		}
	}
	return nil
}

// Validate checks every runtime knob's range, whether the Config came from
// XML, from flags, or was built (or mutated) programmatically. core.Deploy
// calls it, so a negative worker count or an unknown backend scheme fails
// deployment loudly instead of silently selecting a default behavior. The
// per-field checks come from the knob table; the rules below are the ones
// that relate two fields.
func (c *Config) Validate() error {
	for _, k := range c.knobs() {
		if err := k.check(); err != nil {
			return err
		}
	}
	if c.PersistBackend != "" {
		if err := store.ValidateURL(c.PersistBackend); err != nil {
			return fmt.Errorf("config: persist backend: %w", err)
		}
	}
	if c.SpillDir != "" && c.AggregateEnabled() {
		return fmt.Errorf("config: scratch spill is incompatible with aggregation (mode %q): spilled chunks are released before the merge could read them", c.AggregateMode)
	}
	return nil
}

// StoreOptions maps the <store> knobs onto the options a backend named by
// PersistBackend is opened with.
func (c *Config) StoreOptions() store.Options {
	return store.Options{
		PartSize:   c.StorePartSize,
		PutWorkers: c.StorePutWorkers,
	}
}

// AggregateEnabled reports whether the node's dedicated cores merge their
// epochs.
func (c *Config) AggregateEnabled() bool {
	return c.AggregateMode == "core"
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
