package config

import (
	"strings"
	"testing"
)

// FuzzConfigParse drives the XML loader with arbitrary documents. Whatever
// Parse accepts must pass Validate (core.Deploy validates again, so a
// document the loader accepts and Deploy refuses would be a loader bug),
// and no accepted variable name may contain ':', which names the products
// actions add to an iteration ("stats:<var>").
func FuzzConfigParse(f *testing.F) {
	f.Add(paperExample)
	f.Add(`<simulation></simulation>`)
	f.Add(`<simulation>
  <buffer size="4194304" allocator="mutex" cores="1"/>
  <pipeline workers="2" queue="4" encode_workers="2" gzip_level="6" codec="shuffle+gzip"/>
  <store backend="obj:///tmp/o" part_size="65536" put_workers="2"/>
  <shards count="2"/>
  <layout name="l" type="double" dimensions="4,4"/>
  <variable name="v" layout="l" description="d" unit="K"/>
  <event name="e" action="a" scope="global"/>
</simulation>`)
	f.Add(`<simulation><pipeline workers="1" queue="2"/><spill dir="/s" after="3"/></simulation>`)
	f.Add(`<simulation><aggregate mode="core"/></simulation>`)
	f.Add(`<simulation><layout name="l" type="int" dimensions="2"/><variable name="stats:v" layout="l"/></simulation>`)
	f.Add(`<simulation><buffer size="-1"/></simulation>`)
	f.Add(`<simulation><pipeline workers="0" queue="0"/></simulation>`)
	f.Add(`<simulation><shards steal="4"/></simulation>`)
	f.Add(`<simulation><layout name="l" type="real" dimensions="4611686018427387904,2"/></simulation>`)
	f.Add(`<simulation`)

	f.Fuzz(func(t *testing.T, doc string) {
		c, err := ParseString(doc)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse accepted a configuration Validate refuses: %v", err)
		}
		for name := range c.Variables {
			if strings.Contains(name, ":") {
				t.Fatalf("Parse accepted variable %q, whose ':' is reserved for action products", name)
			}
		}
	})
}
