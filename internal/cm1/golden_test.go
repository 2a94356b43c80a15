package cm1

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
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

// TestBackendsByteIdentical pins the bytes each strategy writes: the output
// tree of one small fixed run per backend must hash to a committed constant,
// so a change to how fields are gathered or handed over cannot change what
// lands on disk. Each run is 4 steps with an output every 2, on 2 nodes of 6
// compute ranks in all: Damaris's 8 ranks keep one dedicated core per node.
func TestBackendsByteIdentical(t *testing.T) {
	for _, c := range []struct {
		backend      string
		ranks, files int
		sha          string
	}{
		{"damaris", 8, 4, "42b21f2d167a71d1ed3e5e862e02fe15a5e71f44c761bc26b43bba8c2290c6a7"},
		{"fpp", 6, 12, "df8a1d420e12f74e15b73c5761baaf50ef4d2dfd4b432f261fbe5fd6bff82983"},
		{"collective", 6, 4, "693b2872dff329eea1b433fad057e718d5f8364b85471482fc580b0a8b5bf93f"},
	} {
		t.Run(c.backend, func(t *testing.T) {
			dir, cfg := t.TempDir(), defaults(t)
			cfg.BufferSize, cfg.PersistBackend = 8<<20, "file://"+dir
			if _, err := RunWorld(WorldSpec{Strategy: c.backend, Ranks: c.ranks, CoresPerNode: c.ranks / 2,
				Steps: 4, OutputEvery: 2, Grid: smallParams, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			sha, n := treeHash(t, dir)
			if sha != c.sha || n != c.files {
				t.Errorf("output tree: %d files, sha256 %s; want %d files, %s", n, sha, c.files, c.sha)
			}
		})
	}
}
