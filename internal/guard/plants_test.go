package guard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// base is a module every rule passes: a method reached only through an
// interface, sort.Sort's methods, an allow-listed export, 11 hand-declared
// flags beside a config.BindFlags, and lines only an except pattern or a
// test file may hold.
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
`,
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
	_ = flag.String("str", "", "")
	cfg := &config.Config{}
	cfg.BindFlags(flag.CommandLine)
	flag.Parse()
	live.Used(flag.Args())
	var named live.Named = live.T{}
	_ = named
}
`,
	"internal/store/tree.go":       "package store\n\n// publish is the one rename: os.Rename(tmp, dst)\n",
	"internal/core/pipe_test.go":   "package core\n\n// A test may spell it: if pipe == nil {}\n",
	"internal/metadata/catalog.go": "package metadata\n",
}

// fixtureAllow is base's allow-list.
var fixtureAllow = map[string]string{"internal/live.Kept": "the fixture's allowed export"}

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
	if v := check(t, plant(t), fixtureAllow); len(v) > 0 {
		t.Fatalf("the unplanted fixture fails: %q", v)
	}
	for _, p := range []struct{ name, file, src, want string }{
		{"dead export", "internal/live/dead.go", "package live\n\n// Dead has no caller.\nfunc Dead() {}\n",
			"dead export: internal/live.Dead has no non-test caller"},
		{"allow-list entry with a caller", "cmd/damaris-run/kept.go",
			"package main\n\nimport \"fixture/internal/live\"\n\nfunc init() { live.Kept() }\n",
			"allow-list: internal/live.Kept now has a caller"},
		{"twelfth flag", "cmd/damaris-run/twelfth.go",
			"package main\n\nimport \"flag\"\n\nvar twelfth float64\n\nfunc init() { flag.Float64Var(&twelfth, \"twelfth\", 0, \"\") }\n",
			"cmd/damaris-run declares 12 flags by hand"},
	} {
		t.Run(p.name, func(t *testing.T) { expect(t, check(t, plant(t, p.file, p.src), fixtureAllow), p.want) })
	}
	t.Run("export only an example uses", func(t *testing.T) {
		root := plant(t, "internal/live/example.go", "package live\n\n// Shown is used by an example only.\nfunc Shown() {}\n",
			"examples/x/main.go", "package main\n\nimport \"fixture/internal/live\"\n\nfunc main() { live.Shown() }\n")
		expect(t, check(t, root, fixtureAllow), "dead export: internal/live.Shown has no non-test caller")
	})
	for _, row := range forbidden {
		t.Run(row.plant[0], func(t *testing.T) {
			expect(t, forbiddenMatches(t, plant(t, row.plant[0], "\n"+row.plant[1]+"\n")), row.reason)
		})
	}
	for _, c := range caps {
		t.Run(c.dirs[0], func(t *testing.T) {
			expect(t, overCaps(t, plant(t, c.dirs[0]+"/pad.go", strings.Repeat("\n", c.max+1))), c.reason)
		})
	}
}
