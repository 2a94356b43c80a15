package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// pattern returns n deterministic, non-repeating bytes.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed + byte(i>>8)*13
	}
	return b
}

// writeObject streams data into one object and commits it.
func writeObject(t *testing.T, b Backend, name string, data []byte, chunk int) *Manifest {
	t.Helper()
	w, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readBack reads a committed object's full stream through ReadAt.
func readBack(t *testing.T, b Backend, name string) []byte {
	t.Helper()
	r, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	// An empty object reads (0, io.EOF) under the bytes.Reader-style ReadAt
	// contract; only a real failure is fatal.
	if n, err := r.ReadAt(buf, 0); int64(n) != r.Size() || (err != nil && err != io.EOF) {
		t.Fatalf("ReadAt full object: %d, %v", n, err)
	}
	return buf
}

func TestObjStoreMultipartRoundTrip(t *testing.T) {
	const partSize = 1024
	// Sizes around the part boundary: empty remainder, exact multiple,
	// sub-part object, single byte over.
	for _, size := range []int{0, 1, partSize - 1, partSize, partSize + 1, 5*partSize + 37} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			b, err := NewObjStore(t.TempDir(), Options{PartSize: partSize, PutWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(size, 1)
			m := writeObject(t, b, "x.dsf", data, 300) // write in odd-sized slices
			wantParts := (size + partSize - 1) / partSize
			if len(m.Parts) != wantParts || m.Size != int64(size) {
				t.Fatalf("manifest = %d parts size %d, want %d parts size %d",
					len(m.Parts), m.Size, wantParts, size)
			}
			if got := readBack(t, b, "x.dsf"); !bytes.Equal(got, data) {
				t.Fatal("restore is not byte-identical")
			}
			objs, err := b.Objects()
			if err != nil || len(objs) != 1 || objs[0].Name != "x.dsf" || objs[0].Size != int64(size) {
				t.Fatalf("Objects = %+v, %v", objs, err)
			}
		})
	}
}

func TestObjStoreReadAtAcrossParts(t *testing.T) {
	const partSize = 512
	b, err := NewObjStore(t.TempDir(), Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(4*partSize+100, 2)
	writeObject(t, b, "x", data, 999)
	r, err := b.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Reads straddling part boundaries and the tail.
	for _, c := range []struct{ off, n int }{
		{0, 10}, {partSize - 5, 10}, {2*partSize - 1, 2*partSize + 2}, {len(data) - 7, 7},
	} {
		buf := make([]byte, c.n)
		if _, err := r.ReadAt(buf, int64(c.off)); err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", c.off, c.n, err)
		}
		if !bytes.Equal(buf, data[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(%d,%d) bytes differ", c.off, c.n)
		}
	}
	// Past-EOF read must report io.EOF.
	if _, err := r.ReadAt(make([]byte, 8), r.Size()); err != io.EOF {
		t.Errorf("read at EOF = %v, want io.EOF", err)
	}
	short := make([]byte, 64)
	n, err := r.ReadAt(short, r.Size()-10)
	if n != 10 || err != io.EOF {
		t.Errorf("tail read = %d, %v; want 10, io.EOF", n, err)
	}
}

func TestObjStoreDedupe(t *testing.T) {
	const partSize = 1024
	b, err := NewObjStore(t.TempDir(), Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(3*partSize, 3)
	m1 := writeObject(t, b, "a", data, partSize)
	st := b.Stats()
	if st.Puts != 3 || st.DedupeHits != 0 {
		t.Fatalf("first write stats = %+v", st)
	}

	// Identical content under a different name: every part dedupes.
	m2 := writeObject(t, b, "b", data, partSize)
	st = b.Stats()
	if st.Puts != 3 {
		t.Errorf("identical object re-uploaded parts: %d puts", st.Puts)
	}
	if st.DedupeHits != 3 || st.DedupeBytes != int64(len(data)) {
		t.Errorf("dedupe hits = %d (%d bytes), want 3 (%d)", st.DedupeHits, st.DedupeBytes, len(data))
	}
	if got := st.DedupeHitRate(); got != 0.5 {
		t.Errorf("dedupe hit rate = %v, want 0.5", got)
	}
	for i := range m1.Parts {
		if m1.Parts[i].Blob != m2.Parts[i].Blob || m1.Parts[i].SHA256 == "" {
			t.Errorf("part %d not content-addressed identically: %+v vs %+v", i, m1.Parts[i], m2.Parts[i])
		}
	}

	// A repeated part within one object dedupes too (two identical parts).
	rep := append(append([]byte(nil), data[:partSize]...), data[:partSize]...)
	writeObject(t, b, "c", rep, partSize)
	st = b.Stats()
	if st.DedupeHits != 5 { // both parts of "c" are already stored
		t.Errorf("dedupe hits after repeated-part object = %d, want 5", st.DedupeHits)
	}

	// Both objects restore independently.
	if !bytes.Equal(readBack(t, b, "a"), data) || !bytes.Equal(readBack(t, b, "b"), data) {
		t.Error("deduped objects do not restore byte-identically")
	}
}

// Determinism: the same stream through different worker counts and write
// granularities produces identical manifests — the property that makes
// retries and cross-core dedupe work.
func TestObjStoreManifestDeterministicAcrossWorkers(t *testing.T) {
	const partSize = 2048
	data := pattern(7*partSize+123, 4)
	var ref *Manifest
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1 << 20, 777, partSize} {
			b, err := NewObjStore(t.TempDir(), Options{PartSize: partSize, PutWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			m := writeObject(t, b, "x", data, chunk)
			if ref == nil {
				ref = m
				continue
			}
			if len(m.Parts) != len(ref.Parts) {
				t.Fatalf("workers=%d chunk=%d: %d parts, want %d", workers, chunk, len(m.Parts), len(ref.Parts))
			}
			for i := range m.Parts {
				if m.Parts[i] != ref.Parts[i] {
					t.Fatalf("workers=%d chunk=%d: part %d = %+v, want %+v",
						workers, chunk, i, m.Parts[i], ref.Parts[i])
				}
			}
		}
	}
}

func TestObjStoreRetryTransientFailure(t *testing.T) {
	tf := FailTimes(OpPut, 2, errors.New("transient storage error"))
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 1024, PutWorkers: 1, Fault: tf})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(3000, 5)
	writeObject(t, b, "x", data, 512)
	st := b.Stats()
	if st.Retries == 0 {
		t.Errorf("expected retries, stats = %+v", st)
	}
	if !bytes.Equal(readBack(t, b, "x"), data) {
		t.Error("restore after retried upload differs")
	}
}

func TestObjStoreUploadFailsAfterAttempts(t *testing.T) {
	hard := FailTimes(OpPut, 1000, errors.New("storage down"))
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 512, PutWorkers: 2, PutAttempts: 2, Fault: hard})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(2048, 6)); err != nil {
		// Fail-fast on a dead backend is acceptable mid-write…
		t.Logf("write failed fast: %v", err)
	}
	if _, err := w.Commit(); err == nil {
		t.Fatal("commit must fail when parts cannot upload")
	}
	// …and the object must not exist.
	if _, err := b.Manifest("x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("manifest after failed upload = %v, want ErrNotExist", err)
	}
}

func TestObjStoreCommitRequiresDurableParts(t *testing.T) {
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	err = b.Commit(&Manifest{Object: "ghost", Size: 4, Parts: []Part{{Blob: "cas/sha256/feed", Size: 4}}})
	if err == nil {
		t.Fatal("committing a manifest over missing parts must fail")
	}
}

func TestObjStoreAbortLeavesNoObject(t *testing.T) {
	b, err := NewObjStore(t.TempDir(), Options{PartSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(1000, 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if objs, _ := b.Objects(); len(objs) != 0 {
		t.Errorf("aborted upload left visible objects: %+v", objs)
	}
	if _, err := b.Open("x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("aborted object opened: %v", err)
	}
}

// The runs of a pinned part are the caller's bytes themselves, hashed and
// written where they lie, while bytes from Write are copied. The object
// reads back whole.
func TestWritePinnedRunsAliasCallerBytes(t *testing.T) {
	const partSize = 1024
	s, err := NewObjStore(t.TempDir(), Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	head, body := pattern(8, 1), pattern(2*partSize+100, 2)
	ow, err := s.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	w := ow.(*objWriter)
	if _, err := w.Write(head); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePinned(body[:100]); err != nil {
		t.Fatal(err)
	}
	if r := w.pt.runs; &r[0][0] == &head[0] || &r[len(r)-1][0] != &body[0] {
		t.Errorf("header run aliases the caller %v, pinned run %v, want false, true",
			&r[0][0] == &head[0], &r[len(r)-1][0] == &body[0])
	}
	// Across two part boundaries: the third part starts at body[2*partSize-8].
	if _, err := w.WritePinned(body[100:]); err != nil {
		t.Fatal(err)
	}
	if r := w.pt.runs; len(r) != 1 || len(r[0]) != 108 || &r[0][0] != &body[2*partSize-8] {
		t.Errorf("last part's runs: %d, want one run of 108 bytes aliasing the caller", len(r))
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, s, "o"); !bytes.Equal(got, append(head, body...)) {
		t.Error("object reads back other bytes")
	}
}
