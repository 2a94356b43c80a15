package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The satellite scenario: an objstore upload killed mid-part must leave no
// visible torn object (manifest-last), and the retry must dedupe the parts
// that already made it durable before the crash.
func TestObjStoreCrashMidPartThenRetryDedupes(t *testing.T) {
	const partSize = 1024
	dir := t.TempDir()
	data := pattern(5*partSize, 8)

	// Kill the 3rd part's rename: its temp bytes are written (a torn
	// upload) but the blob never appears. Workers=1 keeps the part order
	// deterministic: parts 0 and 1 are durable, 2 dies, 3 and 4 never run
	// (fail-fast) or fail to matter.
	crash := FailNth(OpPutRename, 3, errors.New("simulated crash: writer killed mid-part"))
	b, err := NewObjStore(dir, Options{PartSize: partSize, PutWorkers: 1, PutAttempts: 1, Fault: crash})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("victim.dsf")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(data)
	_, cerr := w.Commit()
	if werr == nil && cerr == nil {
		t.Fatal("crashed upload must surface an error at write or commit")
	}

	// No visible torn object: no manifest, no committed object, Open fails.
	if _, err := b.Manifest("victim.dsf"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("manifest after crash = %v, want ErrNotExist", err)
	}
	if objs, err := b.Objects(); err != nil || len(objs) != 0 {
		t.Fatalf("Objects after crash = %+v, %v; want none", objs, err)
	}
	if _, err := b.Open("victim.dsf"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open after crash = %v, want ErrNotExist", err)
	}
	// The torn bytes exist — but only in the invisible temp area.
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(tmps) == 0 {
		t.Fatalf("expected torn temp files from the killed part, got %v, %v", tmps, err)
	}
	// And the blob plane lists only fully durable parts.
	blobs, err := b.blobs.list("cas/")
	if err != nil {
		t.Fatal(err)
	}
	durable := len(blobs)
	if durable == 0 || durable >= 5 {
		t.Fatalf("crash should leave some but not all parts durable, got %d", durable)
	}

	// Retry on a fresh backend instance over the same root (the restarted
	// writer): already-present parts dedupe, the rest upload, the commit
	// publishes, and the restore is byte-identical.
	b2, err := NewObjStore(dir, Options{PartSize: partSize, PutWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := writeObject(t, b2, "victim.dsf", data, partSize)
	if len(m.Parts) != 5 {
		t.Fatalf("manifest parts = %d, want 5", len(m.Parts))
	}
	st := b2.Stats()
	if st.DedupeHits != int64(durable) {
		t.Errorf("retry dedupe hits = %d, want %d (the parts that survived the crash)",
			st.DedupeHits, durable)
	}
	if st.Puts != int64(5-durable) {
		t.Errorf("retry uploaded %d parts, want %d", st.Puts, 5-durable)
	}
	if got := readBack(t, b2, "victim.dsf"); !bytes.Equal(got, data) {
		t.Fatal("restore after crash+retry is not byte-identical")
	}
}

// A crash between part durability and manifest publication (the commit
// rename itself) must also leave nothing visible, and the retry dedupes
// every part.
func TestObjStoreCrashAtCommitThenRetry(t *testing.T) {
	const partSize = 512
	dir := t.TempDir()
	data := pattern(3*partSize+100, 9)

	crash := FailNth(OpCommit, 1, errors.New("simulated crash before manifest publish"))
	b, err := NewObjStore(dir, Options{PartSize: partSize, Fault: crash})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("x.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err == nil {
		t.Fatal("commit must fail under the injected crash")
	}
	if objs, _ := b.Objects(); len(objs) != 0 {
		t.Fatalf("crashed commit left visible objects: %+v", objs)
	}

	b2, err := NewObjStore(dir, Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	writeObject(t, b2, "x.dsf", data, partSize)
	st := b2.Stats()
	if st.Puts != 0 || st.DedupeHits != 4 {
		t.Errorf("retry after commit-crash should dedupe all 4 parts: %+v", st)
	}
	if got := readBack(t, b2, "x.dsf"); !bytes.Equal(got, data) {
		t.Fatal("restore differs")
	}
}

// The filestore's equivalent protocol: a crash before the rename leaves
// only a hidden temp file — invisible to Objects/List and harmless to
// collection globs.
func TestFileStoreCrashLeavesNoVisibleObject(t *testing.T) {
	dir := t.TempDir()
	crash := FailNth(OpPutRename, 1, errors.New("simulated crash"))
	b, err := NewFileStore(dir, Options{Fault: crash})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("a.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("partial stream")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err == nil {
		t.Fatal("commit must fail under the injected crash")
	}
	if objs, _ := b.Objects(); len(objs) != 0 {
		t.Fatalf("crashed filestore commit left visible objects: %+v", objs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), ".") {
			t.Errorf("visible file %q after crash", e.Name())
		}
	}

	// The retry (no fault) publishes normally.
	b2, err := NewFileStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeObject(t, b2, "a.dsf", []byte("full stream"), 4)
	if got, err := b2.Get("a.dsf"); err != nil || string(got) != "full stream" {
		t.Fatalf("retry = %q, %v", got, err)
	}
}
