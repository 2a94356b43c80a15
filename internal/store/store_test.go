package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOpenUnknownScheme(t *testing.T) {
	_, err := Open("s3://bucket")
	if err == nil {
		t.Fatal("unknown scheme should fail")
	}
	if !strings.Contains(err.Error(), "unknown backend scheme") ||
		!strings.Contains(err.Error(), "file") || !strings.Contains(err.Error(), "obj") {
		t.Errorf("error should name the scheme problem and the alternatives: %v", err)
	}
}

func TestOpenBadURLs(t *testing.T) {
	for _, raw := range []string{"", "no-scheme", "://x", "file://", "obj://d?part_size=abc", "obj://d?bogus=1", "obj://d?put_workers=-2",
		"obj://d?replica="} {
		if _, err := Open(raw); err == nil {
			t.Errorf("Open(%q) should fail", raw)
		}
		if err := ValidateURL(raw); err == nil {
			t.Errorf("ValidateURL(%q) should fail", raw)
		}
	}
	// A URL says where, never how: a query is refused on every scheme, with
	// one message that points at the knob table, before anything is opened.
	dir := t.TempDir()
	root, replica := filepath.Join(dir, "d"), filepath.Join(dir, "r")
	for _, raw := range []string{"obj://d?part_size=4096", "obj://d?hedge_ms=5",
		"obj://d?replica=/r&put_attempts=2", "file://" + root + "?replica=" + replica, "obj://" + root + "?replica=" + replica, "obj://" + root + "?"} {
		b, oerr := OpenWith(raw, Options{})
		if oerr == nil {
			b.Close()
		}
		for _, err := range []error{oerr, ValidateURL(raw)} {
			if err == nil || !strings.Contains(err.Error(), "has a query") || !strings.Contains(err.Error(), "<store>") {
				t.Errorf("%q: error should say the URL has a query and name <store>: %v", raw, err)
			}
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("refused URLs made %v under their roots' directory (%v)", ents, err)
	}
}

func TestValidateURLKnown(t *testing.T) {
	for _, raw := range []string{"file:///tmp/x", "file://rel/dir", "obj://d"} {
		if err := ValidateURL(raw); err != nil {
			t.Errorf("ValidateURL(%q): %v", raw, err)
		}
	}
}

func TestOpenURLSelectsBackend(t *testing.T) {
	dir := t.TempDir()
	b, err := Open("file://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*FileStore); !ok {
		t.Errorf("file:// opened %T", b)
	}
	b2, err := OpenWith("obj://"+dir+"/objects", Options{PartSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	os, ok := b2.(*ObjStore)
	if !ok {
		t.Fatalf("obj:// opened %T", b2)
	}
	if os.partSize != 4096 {
		t.Errorf("part size = %d, want 4096 from the options", os.partSize)
	}
}

func TestValidNames(t *testing.T) {
	bad := []string{"", "/abs", "a/../b", "..", ".hidden", "a/.tmp-x", "a//b", "a\\b", "./a", "a\xffb.dsf", "a\x00b.dsf"}
	for _, n := range bad {
		if err := validName(n); err == nil {
			t.Errorf("validName(%q) should fail", n)
		}
	}
	good := []string{"node0000_srv0001_it000001.dsf", "cas/sha256/abcd", "a/b/c"}
	for _, n := range good {
		if err := validName(n); err != nil {
			t.Errorf("validName(%q): %v", n, err)
		}
	}
}

// A name that is not valid UTF-8 would come back from a JSON manifest as
// another name (U+FFFD for the bad byte): an object no read could reach and
// whose manifest fails every listing of the store and GC's mark. Both
// backends refuse it at Create, before anything lands.
func TestNonUTF8NameRefused(t *testing.T) {
	for _, scheme := range []string{"file", "obj"} {
		b, err := Open(scheme + "://" + t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if w, err := b.Create("a\xffb.dsf"); err == nil {
			w.Abort()
			t.Errorf("%s: Create of a name that is not UTF-8 succeeded", scheme)
		}
		writeObject(t, b, "ok.dsf", pattern(100, 1), 100)
		if objs, err := b.Objects(); err != nil || len(objs) != 1 || objs[0].Name != "ok.dsf" {
			t.Errorf("%s: Objects = %v, %v; want just ok.dsf", scheme, objs, err)
		}
	}
}

// A name with a NUL reaches the kernel cut short at it: the whole object
// would stream to disk and fail only at publish, leaving its temp (and, on
// obj://, its parts) behind. Every call refuses it before the fault sees it
// and before anything is written.
func TestNULNameRefused(t *testing.T) {
	const name = "a\x00b.dsf"
	for _, scheme := range []string{"file", "obj"} {
		root := t.TempDir()
		var seen sync.Map
		fault := FaultFunc(func(op, n string) error {
			if strings.IndexByte(n, 0) >= 0 {
				seen.Store(op, true)
			}
			return nil
		})
		b, err := OpenWith(scheme+"://"+root, Options{Fault: fault, PartSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if w, err := b.Create(name); err == nil {
			w.Write(pattern(4096, 1))
			w.Commit()
			t.Errorf("%s: Create succeeded", scheme)
		}
		if err := plantBlob(b, name, []byte("x")); err == nil {
			t.Errorf("%s: a put succeeded", scheme)
		}
		if _, err := b.Open(name); err == nil {
			t.Errorf("%s: Open succeeded", scheme)
		}
		if _, err := b.Stat(name); err == nil {
			t.Errorf("%s: Stat succeeded", scheme)
		}
		if err := b.Delete(name); err == nil {
			t.Errorf("%s: Delete succeeded", scheme)
		}
		if _, err := b.Manifest(name); err == nil {
			t.Errorf("%s: Manifest succeeded", scheme)
		}
		seen.Range(func(op, _ any) bool {
			t.Errorf("%s: the fault saw %s of the name", scheme, op)
			return true
		})
		if files := filesUnder(root); len(files) > 0 {
			t.Errorf("%s: files under the root: %v", scheme, files)
		}
	}
}

// filesUnder lists the files, not directories, under root.
func filesUnder(root string) (names []string) {
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			names = append(names, p)
		}
		return err
	})
	return names
}

// plantBlob lands a blob no object wrote, through the backend's fault hook
// and counted in its Stats as a put, for tests of the blob plane's readers.
func plantBlob(b Backend, name string, data []byte) error {
	switch s := b.(type) {
	case *ObjStore:
		return putCounted(&s.blobs, &s.metrics, name, data)
	case *FileStore:
		return putCounted(&s.t, &s.metrics, name, data)
	}
	return fmt.Errorf("plantBlob: %T", b)
}

// putCounted puts data as name in t and counts the put, or its failure, in m.
func putCounted(t *tree, m *metrics, name string, data []byte) error {
	start := time.Now()
	if err := t.put(OpPut, name, data); err != nil {
		return m.failed(err)
	}
	m.put(time.Since(start).Seconds(), int64(len(data)))
	return nil
}

// blobTree is the tree a backend keeps its blobs in.
func blobTree(b Backend) *tree {
	switch s := b.(type) {
	case *ObjStore:
		return &s.blobs
	case *FileStore:
		return &s.t
	}
	panic(fmt.Sprintf("blobTree: %T", b))
}

// blobPlane exercises Get/Stat/Delete, and what list sees of the blobs,
// uniformly on any backend.
func blobPlane(t *testing.T, b Backend) {
	t.Helper()
	for _, blob := range []struct{ name, data string }{{"dir/a", "alpha"}, {"dir/b", "beta"}, {"c", "gamma"}} {
		if err := plantBlob(b, blob.name, []byte(blob.data)); err != nil {
			t.Fatal(err)
		}
	}

	got, err := b.Get("dir/a")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get dir/a = %q, %v", got, err)
	}
	info, err := b.Stat("dir/b")
	if err != nil || info.Size != 4 {
		t.Fatalf("Stat dir/b = %+v, %v", info, err)
	}
	if _, err := b.Stat("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Stat missing = %v, want ErrNotExist", err)
	}
	if _, err := b.Get("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Get missing = %v, want ErrNotExist", err)
	}

	all, err := blobTree(b).list("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Name != "c" || all[1].Name != "dir/a" || all[2].Name != "dir/b" {
		t.Fatalf("list = %+v", all)
	}
	sub, err := blobTree(b).list("dir/")
	if err != nil || len(sub) != 2 {
		t.Fatalf("list(dir/) = %+v, %v", sub, err)
	}

	if err := b.Delete("dir/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("dir/a"); !errors.Is(err, ErrNotExist) {
		t.Errorf("deleted blob still readable: %v", err)
	}
	if err := b.Delete("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Delete missing = %v, want ErrNotExist", err)
	}

	st := b.Stats()
	if st.Puts != 3 || st.Gets == 0 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFileStoreBlobPlane(t *testing.T) {
	b, err := NewFileStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	blobPlane(t, b)
	if b.Stats().Scheme != "file" {
		t.Errorf("scheme = %q", b.Stats().Scheme)
	}
}

func TestObjStoreBlobPlane(t *testing.T) {
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	blobPlane(t, b)
	if b.Stats().Scheme != "obj" {
		t.Errorf("scheme = %q", b.Stats().Scheme)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewObjStore(t.TempDir(), Options{PartSize: -1}); err == nil {
		t.Error("negative part size should fail")
	}
	if _, err := NewObjStore(t.TempDir(), Options{PutWorkers: -1}); err == nil {
		t.Error("negative put workers should fail")
	}
	if _, err := NewObjStore(t.TempDir(), Options{PutAttempts: -1}); err == nil {
		t.Error("negative put attempts should fail")
	}
}

// Injected fault latency models the storage target, so it must be included
// in the reported op latencies (a regression here makes latency-profile
// benchmarks report ~0 for an emulated slow store).
func TestFaultLatencyCountsInStats(t *testing.T) {
	const d = 5 * time.Millisecond
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 1024, Fault: Latency(d, OpPut, OpGet)})
	if err != nil {
		t.Fatal(err)
	}
	if err := plantBlob(b, "x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("x"); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.PutLatency.Mean < d.Seconds() {
		t.Errorf("PutLatency.Mean = %v, want >= %v (injected latency must count)", st.PutLatency.Mean, d.Seconds())
	}
	if st.GetLatency.Mean < d.Seconds() {
		t.Errorf("GetLatency.Mean = %v, want >= %v", st.GetLatency.Mean, d.Seconds())
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// settleFDs waits, collecting garbage, until at most base descriptors are
// open: another test's abandoned put may hold one for a moment, and stores
// other tests dropped are closed by their finalizers.
func settleFDs(t *testing.T, base int, what string) {
	t.Helper()
	n := openFDs(t)
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = openFDs(t) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Errorf("%s: %d descriptors open, %d before", what, n, base)
	}
}

// TestStoresReleaseDirectories holds both backends to owning the
// directories they name files against: Close releases them, a store
// dropped without Close releases them when collected, and a put after
// Close fails without creating a file anywhere under the root.
func TestStoresReleaseDirectories(t *testing.T) {
	open := map[string]func(root string) (Backend, error){
		"file": func(root string) (Backend, error) { return NewFileStore(root, Options{}) },
		"obj":  func(root string) (Backend, error) { return NewObjStore(root, Options{PartSize: 1024}) },
	}
	for _, scheme := range []string{"file", "obj"} {
		root := t.TempDir()
		b, err := open[scheme](root)
		if err != nil {
			t.Fatal(err)
		}
		writeObject(t, b, "a.dsf", pattern(3000, 1), 3000) // directories exist, one object is committed
		b.Close()
		base := openFDs(t)
		closed := make([]Backend, 500) // reachable: no finalizer may do Close's work
		for i := range closed {
			if closed[i], err = open[scheme](root); err != nil {
				t.Fatal(err)
			}
			if err := closed[i].Close(); err != nil {
				t.Fatal(err)
			}
		}
		settleFDs(t, base, scheme+": 500 stores closed")
		runtime.KeepAlive(closed)
		for range 100 {
			if _, err := open[scheme](root); err != nil {
				t.Fatal(err)
			}
		}
		settleFDs(t, base, scheme+": 100 stores dropped")

		b, err = open[scheme](root)
		if err != nil {
			t.Fatal(err)
		}
		before := filesUnder(root)
		b.Close()
		if err := plantBlob(b, "after-close", []byte("x")); err == nil {
			t.Errorf("%s: a put after Close succeeded", scheme)
		}
		if w, err := b.Create("b.dsf"); err == nil {
			if _, err := w.Write(pattern(3000, 2)); err == nil {
				if _, err := w.Commit(); err == nil {
					t.Errorf("%s: an object committed after Close", scheme)
				}
			}
		}
		if _, err := b.Open("a.dsf"); err == nil {
			t.Errorf("%s: a read after Close succeeded", scheme)
		}
		if _, err := b.Objects(); err == nil {
			t.Errorf("%s: a listing after Close succeeded", scheme)
		}
		if after := filesUnder(root); !slices.Equal(after, before) {
			t.Errorf("%s: files under the root after Close: %v, before: %v", scheme, after, before)
		}
	}
}
