package config

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"damaris/internal/layout"
)

const paperExample = `
<simulation>
  <buffer size="1048576" allocator="lockfree" cores="1"/>
  <layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
  <variable name="my_variable" layout="my_layout"/>
  <event name="my_event" action="do_something" using="my_plugin.so" scope="local"/>
</simulation>`

func TestParsePaperExample(t *testing.T) {
	c, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if c.BufferSize != 1048576 {
		t.Errorf("BufferSize = %d", c.BufferSize)
	}
	if c.Allocator != "lockfree" {
		t.Errorf("Allocator = %q", c.Allocator)
	}
	if c.DedicatedCores != 1 {
		t.Errorf("DedicatedCores = %d", c.DedicatedCores)
	}
	l, ok := c.Layouts["my_layout"]
	if !ok {
		t.Fatal("layout missing")
	}
	// Fortran dims 64,16,2 normalize to C order 2,16,64.
	want := layout.MustNew(layout.Float32, 2, 16, 64)
	if !l.Equal(want) {
		t.Errorf("layout = %v, want %v", l, want)
	}
	v, ok := c.Variable("my_variable")
	if !ok || !v.Layout.Equal(want) {
		t.Errorf("variable = %+v", v)
	}
	e, ok := c.Event("my_event")
	if !ok || e.Action != "do_something" || e.Using != "my_plugin.so" || e.Scope != "local" {
		t.Errorf("event = %+v", e)
	}
}

func TestDefaults(t *testing.T) {
	c, err := ParseString(`<simulation></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.BufferSize != DefaultBufferSize {
		t.Errorf("BufferSize = %d", c.BufferSize)
	}
	if c.Allocator != DefaultAllocator {
		t.Errorf("Allocator = %q", c.Allocator)
	}
	if c.DedicatedCores != DefaultDedicatedCores {
		t.Errorf("DedicatedCores = %d", c.DedicatedCores)
	}
}

func TestEventDefaultScope(t *testing.T) {
	c, err := ParseString(`<simulation><event name="e" action="a"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events["e"].Scope != "local" {
		t.Errorf("scope = %q", c.Events["e"].Scope)
	}
}

func TestCLayoutOrderPreserved(t *testing.T) {
	c, err := ParseString(`<simulation>
	  <layout name="l" type="double" dimensions="3,5,7"/>
	</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	want := layout.MustNew(layout.Float64, 3, 5, 7)
	if !c.Layouts["l"].Equal(want) {
		t.Errorf("layout = %v, want %v", c.Layouts["l"], want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed":         `<simulation><layout`,
		"empty layout name": `<simulation><layout name="" type="real" dimensions="2"/></simulation>`,
		"bad type":          `<simulation><layout name="l" type="quat" dimensions="2"/></simulation>`,
		"bad dims":          `<simulation><layout name="l" type="real" dimensions="a,b"/></simulation>`,
		"zero dim":          `<simulation><layout name="l" type="real" dimensions="0"/></simulation>`,
		"dup layout":        `<simulation><layout name="l" type="real" dimensions="2"/><layout name="l" type="real" dimensions="2"/></simulation>`,
		"unknown layout":    `<simulation><variable name="v" layout="nope"/></simulation>`,
		"dup variable":      `<simulation><layout name="l" type="real" dimensions="2"/><variable name="v" layout="l"/><variable name="v" layout="l"/></simulation>`,
		"empty var name":    `<simulation><layout name="l" type="real" dimensions="2"/><variable name="" layout="l"/></simulation>`,
		"event no action":   `<simulation><event name="e"/></simulation>`,
		"event bad scope":   `<simulation><event name="e" action="a" scope="galactic"/></simulation>`,
		"dup event":         `<simulation><event name="e" action="a"/><event name="e" action="b"/></simulation>`,
		"empty event name":  `<simulation><event name="" action="a"/></simulation>`,
		"bad allocator":     `<simulation><buffer allocator="tlsf"/></simulation>`,
		"negative buffer":   `<simulation><buffer size="-1"/></simulation>`,
		"negative cores":    `<simulation><buffer cores="-2"/></simulation>`,
	}
	for name, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "conf.xml")
	if err := os.WriteFile(path, []byte(paperExample), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Variables) != 1 {
		t.Errorf("variables = %d", len(c.Variables))
	}
	if _, err := Load(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLayoutOf(t *testing.T) {
	c, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LayoutOf("my_variable"); !ok {
		t.Error("LayoutOf known variable failed")
	}
	if _, ok := c.LayoutOf("ghost"); ok {
		t.Error("LayoutOf unknown variable should fail")
	}
}

func TestVariableMetadataAttributes(t *testing.T) {
	c, err := ParseString(`<simulation>
	  <layout name="l" type="real" dimensions="4"/>
	  <variable name="temp" layout="l" description="potential temperature" unit="K"/>
	</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	v := c.Variables["temp"]
	if v.Description != "potential temperature" || v.Unit != "K" {
		t.Errorf("attrs = %+v", v)
	}
}

func TestParseReaderEquivalence(t *testing.T) {
	a, err := Parse(strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Layouts) != len(b.Layouts) || len(a.Variables) != len(b.Variables) {
		t.Error("Parse and ParseString disagree")
	}
}

func TestPipelineDefaults(t *testing.T) {
	c, err := ParseString(`<simulation/>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistWorkers != DefaultPersistWorkers {
		t.Errorf("PersistWorkers = %d, want default %d", c.PersistWorkers, DefaultPersistWorkers)
	}
	if c.PersistQueueDepth != DefaultPersistQueueDepth {
		t.Errorf("PersistQueueDepth = %d, want default %d", c.PersistQueueDepth, DefaultPersistQueueDepth)
	}
}

func TestPipelineKnobs(t *testing.T) {
	c, err := ParseString(`<simulation><pipeline workers="4" queue="8"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistWorkers != 4 || c.PersistQueueDepth != 8 {
		t.Errorf("pipeline = %d workers / %d queue, want 4/8", c.PersistWorkers, c.PersistQueueDepth)
	}
}

func TestPipelineSynchronousBaseline(t *testing.T) {
	// workers="0" is meaningful (the synchronous baseline), unlike an
	// absent element which selects the defaults.
	c, err := ParseString(`<simulation><pipeline workers="0"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistWorkers != 0 {
		t.Errorf("PersistWorkers = %d, want explicit 0", c.PersistWorkers)
	}
	if c.PersistQueueDepth != DefaultPersistQueueDepth {
		t.Errorf("PersistQueueDepth = %d, want default %d", c.PersistQueueDepth, DefaultPersistQueueDepth)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := ParseString(`<simulation><pipeline workers="-1"/></simulation>`); err == nil {
		t.Error("negative workers should fail")
	}
	if _, err := ParseString(`<simulation><pipeline queue="-2"/></simulation>`); err == nil {
		t.Error("negative queue depth should fail")
	}
}

func TestPipelineQueueZeroRejected(t *testing.T) {
	// An explicit queue="0" is an error (there is no zero-depth queue),
	// unlike workers="0" which selects the synchronous baseline and unlike
	// an absent attribute which selects the default.
	if _, err := ParseString(`<simulation><pipeline workers="4" queue="0"/></simulation>`); err == nil {
		t.Error("explicit queue=0 should fail")
	}
	if _, err := ParseString(`<simulation><pipeline queue="junk"/></simulation>`); err == nil {
		t.Error("non-numeric queue should fail")
	}
}

func TestPipelineWorkersAttrAbsentKeepsDefault(t *testing.T) {
	// <pipeline queue="8"/> must deepen the queue while keeping the
	// default (asynchronous) worker count — an absent workers attribute is
	// not the same as workers="0".
	c, err := ParseString(`<simulation><pipeline queue="8"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistWorkers != DefaultPersistWorkers || c.PersistQueueDepth != 8 {
		t.Errorf("pipeline = %d workers / %d queue, want %d/8",
			c.PersistWorkers, c.PersistQueueDepth, DefaultPersistWorkers)
	}
	if _, err := ParseString(`<simulation><pipeline workers="many"/></simulation>`); err == nil {
		t.Error("non-numeric workers should fail")
	}
}

func TestPipelineEncodeKnobs(t *testing.T) {
	c, err := ParseString(`<simulation><pipeline encode_workers="4" gzip_level="9"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.EncodeWorkers != 4 || c.PersistGzipLevel != 9 {
		t.Errorf("encode knobs = %d workers / level %d, want 4/9", c.EncodeWorkers, c.PersistGzipLevel)
	}
	// Absent attributes keep the defaults: serial encoding, default level.
	c, err = ParseString(`<simulation><pipeline workers="2"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.EncodeWorkers != DefaultEncodeWorkers || c.PersistGzipLevel != DefaultPersistGzipLevel {
		t.Errorf("defaults = %d workers / level %d, want %d/%d",
			c.EncodeWorkers, c.PersistGzipLevel, DefaultEncodeWorkers, DefaultPersistGzipLevel)
	}
}

func TestPipelineGzipLevelFullRange(t *testing.T) {
	// The whole stdlib range is expressible, including the levels an
	// implicit "0 means default" convention would shadow: explicit 0
	// (NoCompression) and -2 (HuffmanOnly).
	for _, level := range []int{-2, -1, 0, 1, 5, 9} {
		c, err := ParseString(fmt.Sprintf(`<simulation><pipeline gzip_level="%d"/></simulation>`, level))
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if c.PersistGzipLevel != level {
			t.Errorf("PersistGzipLevel = %d, want %d", c.PersistGzipLevel, level)
		}
	}
	for _, bad := range []string{"-3", "10", "fast"} {
		if _, err := ParseString(`<simulation><pipeline gzip_level="` + bad + `"/></simulation>`); err == nil {
			t.Errorf("gzip_level=%q should fail", bad)
		}
	}
	if _, err := ParseString(`<simulation><pipeline encode_workers="-1"/></simulation>`); err == nil {
		t.Error("negative encode_workers should fail")
	}
	if _, err := ParseString(`<simulation><pipeline encode_workers="lots"/></simulation>`); err == nil {
		t.Error("non-numeric encode_workers should fail")
	}
}

func TestStoreElement(t *testing.T) {
	c, err := ParseString(`<simulation><store backend="obj:///data/objects" part_size="1048576" put_workers="8"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistBackend != "obj:///data/objects" || c.StorePartSize != 1<<20 || c.StorePutWorkers != 8 {
		t.Errorf("store = %q part=%d workers=%d", c.PersistBackend, c.StorePartSize, c.StorePutWorkers)
	}
	// Absent element keeps the zero values (file layout over the output
	// directory, backend defaults for the knobs).
	c, err = ParseString(`<simulation/>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PersistBackend != "" || c.StorePartSize != 0 || c.StorePutWorkers != 0 {
		t.Errorf("defaults = %q part=%d workers=%d", c.PersistBackend, c.StorePartSize, c.StorePutWorkers)
	}
}

func TestStoreValidation(t *testing.T) {
	cases := map[string]string{
		"unknown scheme":       `<simulation><store backend="hdf5://nowhere"/></simulation>`,
		"not a URL":            `<simulation><store backend="just-a-dir"/></simulation>`,
		"bad query param":      `<simulation><store backend="obj://d?bogus=1"/></simulation>`,
		"negative part size":   `<simulation><store backend="obj://d" part_size="-4"/></simulation>`,
		"negative put workers": `<simulation><store backend="obj://d" put_workers="-1"/></simulation>`,
		"non-numeric part":     `<simulation><store part_size="big"/></simulation>`,
		"negative put timeout": `<simulation><store backend="obj://d" put_timeout="-10"/></simulation>`,
		"non-numeric timeout":  `<simulation><store backend="obj://d" put_timeout="soon"/></simulation>`,
	}
	for name, xml := range cases {
		if _, err := ParseString(xml); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

func TestStorePutTimeoutAndSpillElements(t *testing.T) {
	c, err := ParseString(`<simulation>
		<store backend="obj:///d" put_timeout="500"/>
		<spill dir="/local/scratch" after="3"/>
	</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.StorePutTimeoutMS != 500 {
		t.Errorf("put timeout = %d, want 500", c.StorePutTimeoutMS)
	}
	if c.SpillDir != "/local/scratch" || c.SpillAfter != 3 {
		t.Errorf("spill = %q after=%d", c.SpillDir, c.SpillAfter)
	}
	// Absent after selects the default threshold.
	c, err = ParseString(`<simulation><spill dir="/scratch"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.SpillAfter != DefaultSpillAfter {
		t.Errorf("default spill after = %d, want %d", c.SpillAfter, DefaultSpillAfter)
	}
}

func TestSpillValidation(t *testing.T) {
	cases := map[string]string{
		"spill without pipeline": `<simulation><pipeline workers="0"/><spill dir="/s"/></simulation>`,
		"spill with aggregation": `<simulation><aggregate mode="core"/><spill dir="/s"/></simulation>`,
		"negative after":         `<simulation><spill dir="/s" after="-1"/></simulation>`,
		"non-numeric after":      `<simulation><spill dir="/s" after="few"/></simulation>`,
	}
	for name, xml := range cases {
		if _, err := ParseString(xml); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

// Validate must hold programmatically built or mutated configs to the same
// rules the XML path enforces — the knobs that used to silently select a
// default behavior now fail loudly.
func TestValidateProgrammaticConfig(t *testing.T) {
	base := func() *Config {
		c, err := ParseString(`<simulation/>`)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}

	for name, mutate := range map[string]func(*Config){
		"negative persist workers": func(c *Config) { c.PersistWorkers = -1 },
		"negative queue depth":     func(c *Config) { c.PersistQueueDepth = -2 },
		"zero queue with pipeline": func(c *Config) { c.PersistWorkers = 2; c.PersistQueueDepth = 0 },
		"negative encode workers":  func(c *Config) { c.EncodeWorkers = -3 },
		"gzip level out of range":  func(c *Config) { c.PersistGzipLevel = 11 },
		"unknown backend scheme":   func(c *Config) { c.PersistBackend = "s3://bucket" },
		"negative store part size": func(c *Config) { c.StorePartSize = -1 },
		"negative put workers":     func(c *Config) { c.StorePutWorkers = -1 },
		"unknown allocator":        func(c *Config) { c.Allocator = "spinlock" },
		"negative buffer":          func(c *Config) { c.BufferSize = -5 },
	} {
		c := base()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s should fail Validate", name)
		}
	}

	// The synchronous baseline tolerates a zero queue depth (the window is
	// pinned to 1 there), and known backends pass.
	c := base()
	c.PersistWorkers = 0
	c.PersistQueueDepth = 0
	if err := c.Validate(); err != nil {
		t.Errorf("sync baseline with zero queue: %v", err)
	}
	c = base()
	c.PersistBackend = "file:///somewhere"
	if err := c.Validate(); err != nil {
		t.Errorf("file backend: %v", err)
	}
	// A backend URL carries no options: the old query spelling of a knob is
	// refused with a pointer to the <store> element that declares it.
	c = base()
	c.PersistBackend = "obj://d?part_size=4096"
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "<store>") {
		t.Errorf("option in the backend URL: %v, want an error naming <store>", err)
	}
}

func TestAggregateElement(t *testing.T) {
	c, err := ParseString(`<simulation><aggregate mode="core" ring="4"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.AggregateMode != "core" || c.AggregateRingDepth != 4 {
		t.Errorf("aggregate = %q ring=%d", c.AggregateMode, c.AggregateRingDepth)
	}
	if !c.AggregateEnabled() {
		t.Error("mode core must report enabled")
	}
	// Absent element keeps aggregation off with the default ring depth.
	c, err = ParseString(`<simulation/>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.AggregateMode != "" || c.AggregateRingDepth != 0 || c.AggregateEnabled() {
		t.Errorf("defaults = %q ring=%d enabled=%v", c.AggregateMode, c.AggregateRingDepth, c.AggregateEnabled())
	}
	// An explicit "off" parses and stays disabled.
	c, err = ParseString(`<simulation><aggregate mode="off"/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.AggregateEnabled() {
		t.Error("mode off must report disabled")
	}
}

func TestAggregateValidation(t *testing.T) {
	cases := map[string]string{
		"unknown mode":     `<simulation><aggregate mode="rack"/></simulation>`,
		"negative ring":    `<simulation><aggregate mode="core" ring="-1"/></simulation>`,
		"non-numeric ring": `<simulation><aggregate mode="core" ring="deep"/></simulation>`,
	}
	for name, xml := range cases {
		if _, err := ParseString(xml); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	// Programmatic mutation is held to the same rules.
	c, err := ParseString(`<simulation/>`)
	if err != nil {
		t.Fatal(err)
	}
	c.AggregateMode = "rack"
	if err := c.Validate(); err == nil {
		t.Error("programmatic unknown aggregate mode should fail Validate")
	}
}

func TestPhaseBytesPerClient(t *testing.T) {
	c, err := ParseString(`<simulation>
  <layout name="a" type="real" dimensions="4,2"/>
  <layout name="b" type="double" dimensions="3"/>
  <variable name="x" layout="a"/>
  <variable name="y" layout="b"/>
</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	// real[4,2] = 32 B, double[3] = 24 B.
	if got := c.PhaseBytesPerClient(); got != 56 {
		t.Errorf("PhaseBytesPerClient = %d, want 56", got)
	}
	empty, err := ParseString(`<simulation/>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.PhaseBytesPerClient(); got != 0 {
		t.Errorf("empty config phase bytes = %d", got)
	}
}
