package guard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// base is a module every rule passes: a method reached only through an
// interface, sort.Sort's methods, an allow-listed export whose reason cites
// an open ROADMAP item, fields read only through a tag, a map key, ==, ++
// or their address, 10 hand-declared flags beside a config.BindFlags, lines
// only an except pattern or a test file may hold, and a decoder with its
// fuzz target.
var base = map[string]string{
	"go.mod": "module fixture\n\ngo 1.24\n",
	"internal/live/live.go": `package live

import "sort"

// Named is the interface T's Name is reached through.
type Named interface{ Name() string }

// T has no caller of Name but the interface.
type T struct{}

// Name implements Named.
func (T) Name() string { return "t" }

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Used sorts its words by length.
func Used(words []string) { sort.Sort(byLen(words)) }

// Kept has no caller; the fixture's allow-list names it.
func Kept() {}

// Doc's field is read by encoding/json, through its tag.
type Doc struct {
	Name string ` + "`json:\"name\"`" + `
}

// pair is a map key: the map reads its fields when it compares keys.
type pair struct{ n, parity int }

// counter's field is read by ++.
type counter struct{ seen int }

// span is compared with ==, which reads both fields.
type span struct{ lo, hi int }

// Lengths counts words by length and parity.
func Lengths(words []string) map[pair]int {
	m := map[pair]int{}
	var c counter
	for _, w := range words {
		if (span{lo: len(w)}) == (span{hi: len(w)}) {
			continue
		}
		m[pair{n: len(w), parity: len(w) % 2}]++
		c.seen++
	}
	return m
}
`,
	"internal/live/wire.go": `package live

import "encoding/binary"

// Word reads b's first little-endian word.
func Word(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
`,
	"internal/live/wire_test.go": "package live\n\nimport \"testing\"\n\nfunc FuzzWord(f *testing.F) {}\n",
	"internal/config/config.go": `package config

import "flag"

// Config holds the knobs.
type Config struct{ Workers, Queue int }

// BindFlags declares the knob flags.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 1, "")
	fs.IntVar(&c.Queue, "queue", 1, "")
}
`,
	"cmd/damaris-run/main.go": `package main

import (
	"flag"
	"time"

	"fixture/internal/config"
	"fixture/internal/live"
)

func main() {
	var (
		n     int
		s     string
		b     bool
		d     time.Duration
		i64   int64
		u     uint
		u64   uint64
		level flag.Value
	)
	flag.IntVar(&n, "n", 0, "")
	flag.StringVar(&s, "s", "", "")
	flag.BoolVar(&b, "b", false, "")
	flag.DurationVar(&d, "d", 0, "")
	flag.Int64Var(&i64, "i64", 0, "")
	flag.UintVar(&u, "u", 0, "")
	flag.Uint64Var(&u64, "u64", 0, "")
	flag.Var(level, "level", "")
	flag.Func("f", "", func(string) error { return nil })
	flag.BoolFunc("bf", "", func(string) error { return nil })
	cfg := &config.Config{}
	cfg.BindFlags(flag.CommandLine)
	flag.Parse()
	live.Used(flag.Args())
	_ = live.Lengths(flag.Args())
	_ = live.Word([]byte("word"))
	var named live.Named = live.T{}
	_ = named
}
`,
	"internal/store/tree.go":       "package store\n\n// publish is the one rename: os.Rename(tmp, dst)\n",
	"internal/core/persist.go":     "package core\n\n// writeFile is the one writer: w, err := dsf.NewWriter(ow)\n",
	"internal/core/pipe_test.go":   "package core\n\n// A test may spell it: if pipe == nil {}\n",
	"internal/metadata/catalog.go": "package metadata\n",
	"internal/cm1/virtual_test.go": "//go:build goexperiment.synctest\n\npackage cm1\n\nimport \"testing\"\n\nfunc TestVirtualTime(t *testing.T) {\n}\n",
	".github/workflows/ci.yml":     "jobs:\n  test:\n    steps:\n      - name: virtual time\n        run: GOEXPERIMENT=synctest go test -count=10 -run TestVirtualTime ./internal/cm1\n",
	"ROADMAP.md":                   "# Roadmap\n\n1. A needle, not an item.\n\n## Open items\n\n2. **The item Kept waits for.**\n\n## Recent\n\n3. Done, no longer an item.\n",
}

// fixtureAllow is base's allow-list, and fixtureDecoders its decoders table.
var (
	fixtureAllow    = map[string]string{"internal/live.Kept": "the fixture's allowed export, until ROADMAP item 2"}
	fixtureDecoders = map[string]string{"internal/live/wire.go": "internal/live.FuzzWord"}
)

// plant writes base, and path/content pairs over it, into a fresh module.
func plant(t *testing.T, extra ...string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{}
	for name, src := range base {
		files[name] = src
	}
	for i := 0; i+1 < len(extra); i += 2 {
		files[extra[i]] += extra[i+1]
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// expect fails unless some violation contains want.
func expect(t *testing.T, violations []string, want string) {
	t.Helper()
	for _, v := range violations {
		if strings.Contains(v, want) {
			return
		}
	}
	t.Errorf("no violation contains %q; got %q", want, violations)
}

// Every planted violation fails the check that owns it, and the unplanted
// fixture passes them all.
func TestPlants(t *testing.T) {
	if v := check(t, plant(t), fixtureAllow, fixtureDecoders); len(v) > 0 {
		t.Fatalf("the unplanted fixture fails: %q", v)
	}
	for _, p := range []struct{ name, file, src, want string }{
		{"dead export", "internal/live/dead.go", "package live\n\n// Dead has no caller.\nfunc Dead() {}\n",
			"dead export: internal/live.Dead has no non-test caller"},
		{"allow-list entry with a caller", "cmd/damaris-run/kept.go",
			"package main\n\nimport \"fixture/internal/live\"\n\nfunc init() { live.Kept() }\n",
			"allow-list: internal/live.Kept is reached by non-test code"},
		{"unexported function only its own body uses", "internal/live/loop.go",
			"package live\n\nfunc loop(n int) {\n\tif n > 0 {\n\t\tloop(n - 1)\n\t}\n}\n",
			"dead function: internal/live.loop has no non-test use outside its own body"},
		{"unexported method in cmd", "cmd/damaris-run/method.go",
			"package main\n\ntype run struct{}\n\nfunc (run) step() {}\n",
			"dead function: cmd/damaris-run.run.step has no non-test use"},
		{"field written, never read", "internal/live/box.go",
			"package live\n\n// Box holds what nothing reads.\ntype Box struct{ v, w int }\n\n// Fill writes it.\nfunc Fill() *Box {\n\tb := &Box{v: 1}\n\tb.w = 2\n\treturn b\n}\n\nfunc init() { Fill() }\n",
			"unread field: internal/live.Box.w is never read by non-test code"},
		{"field only a composite literal sets", "internal/live/lit.go",
			"package live\n\ntype lit struct{ only int }\n\nvar _ = lit{only: 1}\n",
			"unread field: internal/live.lit.only is never read by non-test code"},
		{"eleventh flag", "cmd/damaris-run/eleventh.go",
			"package main\n\nimport \"flag\"\n\nvar _ = flag.String(\"str\", \"\", \"\")\n",
			"cmd/damaris-run declares 11 flags by hand"},
	} {
		t.Run(p.name, func(t *testing.T) {
			expect(t, check(t, plant(t, p.file, p.src), fixtureAllow, fixtureDecoders), p.want)
		})
	}
	t.Run("allow reason citing a closed ROADMAP item", func(t *testing.T) {
		for _, item := range []string{"1", "3", "4"} {
			allow := map[string]string{"internal/live.Kept": "until ROADMAP item " + item}
			expect(t, check(t, plant(t), allow, fixtureDecoders), "allow-list: internal/live.Kept cites ROADMAP item "+item+", which ROADMAP.md no longer lists")
		}
	})
	t.Run("export only an example uses", func(t *testing.T) {
		root := plant(t, "internal/live/example.go", "package live\n\n// Shown is used by an example only.\nfunc Shown() {}\n",
			"examples/x/main.go", "package main\n\nimport \"fixture/internal/live\"\n\nfunc main() { live.Shown() }\n")
		expect(t, check(t, root, fixtureAllow, fixtureDecoders), "dead export: internal/live.Shown has no non-test caller")
	})
	t.Run("decoder without a fuzz target", func(t *testing.T) {
		root := plant(t, "internal/live/peer.go", "package live\n\nimport \"encoding/json\"\n\n// Peer decodes what a peer sent.\nfunc Peer(b []byte) (v int) {\n\tjson.Unmarshal(b, &v)\n\treturn v\n}\n",
			"cmd/damaris-run/peer.go", "package main\n\nimport \"fixture/internal/live\"\n\nfunc init() { live.Peer(nil) }\n")
		expect(t, unfuzzedDecoders(t, root, fixtureDecoders), "internal/live/peer.go: decodes bytes (json.Unmarshal(…) but decoders maps it to no Fuzz target")
	})
	t.Run("decoders entry whose target is gone", func(t *testing.T) {
		gone := map[string]string{"internal/live/wire.go": "internal/live.FuzzGone"}
		expect(t, unfuzzedDecoders(t, plant(t), gone), "decoders: internal/live/wire.go maps to internal/live.FuzzGone, which no _test.go file of its package declares")
	})
	for _, row := range forbidden {
		t.Run(row.plant[0], func(t *testing.T) {
			expect(t, forbiddenMatches(t, plant(t, row.plant[0], "\n"+row.plant[1]+"\n")), row.reason)
		})
	}
	for _, row := range required {
		t.Run(row.path, func(t *testing.T) {
			root := plant(t)
			if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(row.path)), []byte(row.plant), 0o644); err != nil {
				t.Fatal(err)
			}
			expect(t, missingRequired(t, root), row.reason)
		})
	}
	for _, c := range caps {
		t.Run(c.dirs[0], func(t *testing.T) {
			expect(t, overCaps(t, plant(t, c.dirs[0]+"/pad.go", strings.Repeat("\n", c.max+1))), c.reason)
		})
	}
}
