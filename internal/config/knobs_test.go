package config

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A misspelled attribute or element used to parse without error and run on
// the default; it must name what was written and what would have been read.
func TestUnknownAttributesAndElementsRejected(t *testing.T) {
	for doc, want := range map[string][]string{
		`<pipeline worker="4"/>`:                       {"<pipeline>", `"worker"`, "workers, queue, encode_workers, gzip_level"},
		`<spil dir="/x"/>`:                             {"<spil>", "buffer, pipeline, store, spill, aggregate, shards", "layout, variable or event"},
		`<shards cnt="4"/>`:                            {"<shards>", `"cnt"`, "(want count)"},
		`<shards count="2" steal="4"/>`:                {"<shards>", `"steal"`, "(want count)"},
		`<pipeline workers="2"/><pipeline queue="3"/>`: {"more than one <pipeline>"},
		// The adaptive control plane and the spare-core budget it enforced
		// are gone (docs/dsf.md, "Why the pipeline's sizes are static").
		`<control mode="auto"/>`:          {"unknown element <control>", "buffer, pipeline, store, spill, aggregate, shards"},
		`<shards count="2" mode="auto"/>`: {"<shards>", `"mode"`, "(want count)"},
		`<shards budget="8"/>`:            {"<shards>", `"budget"`, "(want count)"},
		// There is no fan-in ring to size: the flow window bounds what
		// the aggregation leader holds (docs/aggregate.md).
		`<aggregate ring="4"/>`: {"<aggregate>", `"ring"`, "(want mode)"},
	} {
		_, err := ParseString("<simulation>" + doc + "</simulation>")
		if err == nil {
			t.Errorf("%s: parsed without error", doc)
			continue
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", doc, err, w)
			}
		}
	}
}

// allElements is a document in which every knob element is present, so
// every knob carries its default — the state BindFlags leaves a Config in.
// elem, when not empty, gets the one attribute.
func allElements(elem, attr, value string) string {
	var b strings.Builder
	b.WriteString("<simulation>")
	last := ""
	for _, k := range new(Config).knobs() {
		switch {
		case k.elem == last:
		case k.elem == elem:
			fmt.Fprintf(&b, "<%s %s=%q/>", elem, attr, value)
		default:
			fmt.Fprintf(&b, "<%s/>", k.elem)
		}
		last = k.elem
	}
	b.WriteString("</simulation>")
	return b.String()
}

// The flag and the attribute of a knob are two spellings of one setting:
// the same value through either yields the same Config, and so does leaving
// both out.
func TestFlagAndAttributeAgree(t *testing.T) {
	fromFlags := func(args ...string) *Config {
		t.Helper()
		c, err := ParseString(`<simulation/>`)
		if err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
		c.BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return c
	}
	fromXML := func(elem, attr, value string) *Config {
		t.Helper()
		c, err := ParseString(allElements(elem, attr, value))
		if err != nil {
			t.Fatalf("<%s %s=%q>: %v", elem, attr, value, err)
		}
		return c
	}
	if f, x := fromFlags(), fromXML("", "", ""); !reflect.DeepEqual(f, x) {
		t.Errorf("no flag set:\n flags %+v\n   xml %+v", f, x)
	}
	flags := 0
	for _, k := range new(Config).knobs() {
		if k.flag == "" {
			continue
		}
		flags++
		// A legal value that is not the default.
		value := strconv.FormatInt(k.def+3, 10)
		switch {
		case k.enum != nil:
			value = k.enum[len(k.enum)-1]
		case k.flag == "persist-backend":
			value = "obj:///data/objects"
		case k.s != nil:
			value = "/local/scratch"
		}
		f, x := fromFlags("-"+k.flag, value), fromXML(k.elem, k.attr, value)
		if !reflect.DeepEqual(f, x) {
			t.Errorf("-%s %s vs <%s %s=%q>:\n flags %+v\n   xml %+v", k.flag, value, k.elem, k.attr, value, f, x)
		}
		if reflect.DeepEqual(f, fromFlags()) {
			t.Errorf("-%s %s changed nothing", k.flag, value)
		}
	}
	if attrs := len(new(Config).knobs()); attrs != 15 || flags != 13 {
		t.Errorf("%d attributes, %d of them with a flag; want 15 and 13 (damaris-run's other 10 flags are its own)", attrs, flags)
	}
	// Work stealing between shard loops is gone, so are the adaptive control
	// plane, the spare-core budget, the store's put deadline and the
	// aggregation ring's depth, and their flags with them.
	fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
	new(Config).BindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		for _, gone := range []string{"steal", "control", "budget", "put-timeout", "aggregate-ring"} {
			if strings.Contains(f.Name, gone) {
				t.Errorf("-%s is still a flag", f.Name)
			}
		}
	})
}

// docRow is a knob row of a docs table: | `attr` / `-flag` | default | …,
// with — in place of the flag for a knob that has none.
var docRow = regexp.MustCompile("(?m)^\\| `(\\w+)` / (?:`-([\\w-]+)`|—) \\| ([^|]*) \\|")

// The knob tables in docs/ say what the table here says: every row matches
// an entry's attribute, flag and default, every entry with a flag has a row,
// and every XML example parses.
func TestDocsMatchKnobTable(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	knobs := new(Config).knobs()
	documented := map[string]bool{}
	for _, path := range docs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range docRow.FindAllStringSubmatch(text, -1) {
			attr, flagName, def := m[1], m[2], strings.Trim(strings.TrimSpace(m[3]), "`")
			var k *knob
			for i := range knobs {
				if knobs[i].attr == attr && knobs[i].flag == flagName {
					k = &knobs[i]
				}
			}
			if k == nil {
				t.Errorf("%s: row `%s` / `-%s` is no knob", path, attr, flagName)
				continue
			}
			want := strconv.FormatInt(k.def, 10)
			if k.s != nil {
				want = k.sdef
				if want == "" {
					want = `""`
				}
			}
			if def != want {
				t.Errorf("%s: `%s` / `-%s` documents default %s, the table says %s", path, attr, flagName, def, want)
			}
			documented[k.elem+" "+k.attr] = true
		}
		for _, block := range strings.Split(text, "```xml\n")[1:] {
			doc, _, _ := strings.Cut(block, "```")
			if !strings.Contains(doc, "<simulation") {
				doc = "<simulation>" + doc + "</simulation>"
			}
			if _, err := ParseString(doc); err != nil {
				t.Errorf("%s: XML example does not parse: %v\n%s", path, err, doc)
			}
		}
	}
	for _, k := range knobs {
		if k.flag != "" && !documented[k.elem+" "+k.attr] {
			t.Errorf("<%s %s> / -%s has no row in docs/*.md", k.elem, k.attr, k.flag)
		}
	}
}
