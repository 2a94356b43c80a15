package cm1

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// treeHash is what `cd dir && find . -type f | sort | xargs sha256sum |
// sha256sum` prints, and the number of files hashed.
func treeHash(t *testing.T, dir string) (string, int) {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, "./"+filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	sum := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%x  %s\n", sha256.Sum256(b), f)
	}
	return fmt.Sprintf("%x", sum.Sum(nil)), len(files)
}

// runGolden runs 8 ranks on 2 nodes of 4 cores, 4 steps with an output every
// 2, through the named backend into dir. Damaris keeps one dedicated core per
// node, so the simulation runs on 6 compute ranks under every backend.
func runGolden(t *testing.T, backend, dir string) {
	p := smallParams(6, 1)
	var cfg *config.Config
	var out store.Backend
	if backend == "damaris" {
		var err error
		if cfg, err = config.ParseString(ConfigXML(p, 8<<20, "mutex", 1)); err != nil {
			t.Fatal(err)
		}
		cfg.PersistBackend = "file://" + dir
	} else {
		out = fileBackend(t, dir)
	}
	ranks := 8
	if backend != "damaris" {
		ranks = 6
	}
	err := mpi.Run(ranks, ranks/2, func(c *mpi.Comm) {
		var b Backend
		comm := c
		switch backend {
		case "damaris":
			dep, err := core.Deploy(c, cfg, nil, core.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !dep.IsClient() {
				if err := dep.Server.Run(); err != nil {
					t.Error(err)
				}
				return
			}
			comm, b = dep.ClientComm, NewDamarisBackend(dep.Client)
		case "fpp":
			b = NewFPPBackend(out, dsf.None, c.Rank())
		case "collective":
			b = NewCollectiveBackend(out, c)
		}
		s, err := New(comm, p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := Run(s, b, 4, 2); err != nil {
			t.Error(err)
		}
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackendsByteIdentical pins the bytes each strategy writes: the output
// tree of one small fixed run per backend must hash to a committed constant,
// so a change to how fields are gathered or handed over cannot change what
// lands on disk.
func TestBackendsByteIdentical(t *testing.T) {
	for _, c := range []struct {
		backend string
		files   int
		sha     string
	}{
		{"damaris", 4, "42b21f2d167a71d1ed3e5e862e02fe15a5e71f44c761bc26b43bba8c2290c6a7"},
		{"fpp", 12, "df8a1d420e12f74e15b73c5761baaf50ef4d2dfd4b432f261fbe5fd6bff82983"},
		{"collective", 4, "693b2872dff329eea1b433fad057e718d5f8364b85471482fc580b0a8b5bf93f"},
	} {
		t.Run(c.backend, func(t *testing.T) {
			dir := t.TempDir()
			runGolden(t, c.backend, dir)
			sha, n := treeHash(t, dir)
			if sha != c.sha || n != c.files {
				t.Errorf("output tree: %d files, sha256 %s; want %d files, %s", n, sha, c.files, c.sha)
			}
		})
	}
}
