package store

import (
	"errors"
	"strings"
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
	// A URL says where, never how: what used to be query options is refused
	// with one message that points at the knob table.
	for _, raw := range []string{"obj://d?part_size=4096", "obj://d?put_timeout=500", "obj://d?hedge_ms=5",
		"obj://d?replica=/r&put_attempts=2"} {
		_, oerr := Open(raw)
		for _, err := range []error{oerr, ValidateURL(raw)} {
			if err == nil || !strings.Contains(err.Error(), "unknown backend URL parameter") ||
				!strings.Contains(err.Error(), "replica=") || !strings.Contains(err.Error(), "<store>") {
				t.Errorf("%q: error should name the parameter, replica= and <store>: %v", raw, err)
			}
		}
	}
}

func TestValidateURLKnown(t *testing.T) {
	for _, raw := range []string{"file:///tmp/x", "file://rel/dir", "obj://d", "obj://d?replica=/tmp/r1&replica=/tmp/r2"} {
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
	if os.PartSize() != 4096 {
		t.Errorf("part size = %d, want 4096 from the options", os.PartSize())
	}
}

func TestValidNames(t *testing.T) {
	bad := []string{"", "/abs", "a/../b", "..", ".hidden", "a/.tmp-x", "a//b", "a\\b", "./a"}
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

// blobPlane exercises Put/Get/Stat/List/Delete uniformly on any backend.
func blobPlane(t *testing.T, b Backend) {
	t.Helper()
	if err := b.Put("dir/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("dir/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("c", []byte("gamma")); err != nil {
		t.Fatal(err)
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

	all, err := b.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Name != "c" || all[1].Name != "dir/a" || all[2].Name != "dir/b" {
		t.Fatalf("List = %+v", all)
	}
	sub, err := b.List("dir/")
	if err != nil || len(sub) != 2 {
		t.Fatalf("List(dir/) = %+v, %v", sub, err)
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
	if err := b.Put("x", []byte("payload")); err != nil {
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
