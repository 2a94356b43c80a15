package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeTestObject commits one object with deterministic pseudo-random bytes
// and returns those bytes.
func writeTestObject(t *testing.T, b Backend, name string, size int64, seed int64) []byte {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	w, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestObjReaderReadAtContract pins the io.ReaderAt contract on the
// multipart reader: reads at or past the end report io.EOF (zero-length
// probes included), partial tail reads return n with io.EOF, interior reads
// are full and error-free.
func TestObjReaderReadAtContract(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 64*3 + 17 // three full parts plus a short tail
	data := writeTestObject(t, s, "o.dsf", size, 1)

	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != size {
		t.Fatalf("Size() = %d, want %d", r.Size(), size)
	}

	// Zero-length read at EOF and beyond must say io.EOF, not (0, nil).
	if n, err := r.ReadAt(nil, size); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(len 0, at size) = %d, %v; want 0, io.EOF", n, err)
	}
	if n, err := r.ReadAt(make([]byte, 0), size+100); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(len 0, past size) = %d, %v; want 0, io.EOF", n, err)
	}
	// Zero-length read inside the object: (0, nil).
	if n, err := r.ReadAt(nil, 5); n != 0 || err != nil {
		t.Fatalf("ReadAt(len 0, interior) = %d, %v; want 0, nil", n, err)
	}
	// Non-empty read past the end: (0, io.EOF).
	if n, err := r.ReadAt(make([]byte, 8), size); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(past end) = %d, %v; want 0, io.EOF", n, err)
	}
	// Read spanning the end: short count plus io.EOF, bytes correct.
	buf := make([]byte, 40)
	n, err := r.ReadAt(buf, size-10)
	if n != 10 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(spanning end) = %d, %v; want 10, io.EOF", n, err)
	}
	if !bytes.Equal(buf[:n], data[size-10:]) {
		t.Fatal("tail bytes mismatch")
	}
	// Full interior read crossing part boundaries: exact bytes, no error.
	buf = make([]byte, 130)
	if n, err := r.ReadAt(buf, 30); n != 130 || err != nil {
		t.Fatalf("ReadAt(interior) = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[30:160]) {
		t.Fatal("interior bytes mismatch")
	}
	// Negative offsets reject.
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

// TestObjReaderConcurrentInterleaved hammers one reader from many
// goroutines at interleaved offsets under -race: the reader holds no state
// between calls, so every read must return the exact bytes.
func TestObjReaderConcurrentInterleaved(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 256*8 + 99
	data := writeTestObject(t, s, "o.dsf", size, 2)

	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 700)
			for i := 0; i < 50; i++ {
				off := rng.Int63n(size)
				want := int64(len(buf))
				if off+want > size {
					want = size - off
				}
				n, err := r.ReadAt(buf, off)
				if int64(n) != want || (err != nil && !errors.Is(err, io.EOF)) {
					errc <- err
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
					errc <- errors.New("bytes mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestObjReaderGetNotSerialized is the overlap proof for the lock-free
// reader: four readers of different parts with injected Get latency must
// overlap. Anything that serialized them — a reader-wide lock, as the
// one-slot cache once had — would quadruple the elapsed time.
func TestObjReaderGetNotSerialized(t *testing.T) {
	const lat = 150 * time.Millisecond
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize: 64,
		Fault:    Latency(lat, OpGet),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeTestObject(t, s, "o.dsf", 64*4, 3)

	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for _, off := range []int64{0, 64, 128, 192} {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			buf := make([]byte, 32)
			if _, err := r.ReadAt(buf, off); err != nil {
				t.Error(err)
			}
		}(off)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Four fetches, each sleeping lat: concurrent ≈ lat, serialized ≈ 4*lat.
	// 3*lat splits the two with margin for scheduler noise.
	if elapsed >= 3*lat {
		t.Fatalf("four concurrent part reads took %v — they appear serialized", elapsed)
	}
}

// dsfLikeOpen reads what dsf.OpenReaderAt reads of a stream: an 8-byte
// header, a 24-byte footer and a TOC just before the footer.
func dsfLikeOpen(t *testing.T, r ObjectReader, tocLen int64) {
	t.Helper()
	for _, rg := range [][2]int64{{0, 8}, {r.Size() - 24, 24}, {r.Size() - 24 - tocLen, tocLen}} {
		if _, err := r.ReadAt(make([]byte, rg[1]), rg[0]); err != nil {
			t.Fatalf("ReadAt(%d+%d): %v", rg[0], rg[1], err)
		}
	}
}

// TestObjReaderOpenMovesOnlyTheTOC is the ranged-read claim: opening a
// three-part object the way dsf does moves the bytes the header, footer and
// TOC occupy, where the whole-part reader moved two parts.
func TestObjReaderOpenMovesOnlyTheTOC(t *testing.T) {
	const partSize = 1 << 20
	s, err := NewObjStore(t.TempDir(), Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeTestObject(t, s, "o.dsf", 2*partSize+1500, 6)

	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := s.Stats()
	dsfLikeOpen(t, r, 1024)
	after := s.Stats()
	if moved := after.GetBytes - before.GetBytes; moved >= 64<<10 {
		t.Errorf("opening a three-part object moved %d bytes, want < 64 KiB", moved)
	}
	// One OpGet per covered part per call: header, footer, TOC.
	if gets := after.Gets - before.Gets; gets != 3 {
		t.Errorf("three single-part ranged reads counted %d Gets, want 3", gets)
	}
}

// TestObjReaderRangedReadsSeeGetFaults: the OpGet hook guards ranged reads
// the way it guards whole-blob Gets — injected latency delays them, injected
// failures fail them and are counted.
func TestObjReaderRangedReadsSeeGetFaults(t *testing.T) {
	const lat = 30 * time.Millisecond
	boom := errors.New("injected get failure")
	onParts := Chain(Latency(lat, OpGet), FailTimes(OpGet, 2, boom))
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize: 64,
		Fault: FaultFunc(func(op, name string) error {
			if !strings.HasPrefix(name, "cas/") {
				return nil // manifest reads are OpGets too; leave Open alone
			}
			return onParts.Op(op, name)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := writeTestObject(t, s, "o.dsf", 64*2, 7)
	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		if _, err := r.ReadAt(buf, 70); !errors.Is(err, boom) {
			t.Fatalf("read %d under FailTimes(OpGet, 2) = %v, want the injected error", i, err)
		}
	}
	if got := s.Stats().Failures; got != 2 {
		t.Errorf("Failures = %d, want 2", got)
	}
	start := time.Now()
	if _, err := r.ReadAt(buf, 70); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("ranged read took %v under Latency(%v, OpGet)", elapsed, lat)
	}
	if !bytes.Equal(buf, data[70:86]) {
		t.Fatal("bytes mismatch after the faults cleared")
	}
}

// TestObjReaderFallsBackToReplica: a part blob present only on a replica
// target is read through the same fallback Get uses.
func TestObjReaderFallsBackToReplica(t *testing.T) {
	primary, replica := t.TempDir(), t.TempDir()
	var replicaStats atomic.Int64
	onReplica := FaultFunc(func(op, name string) error {
		if op == OpStat && name == "o.dsf" {
			replicaStats.Add(1)
		}
		return nil
	})
	s, err := NewObjStore(primary, Options{PartSize: 64, Replicas: []string{replica}, ReplicaFaults: []Fault{onReplica}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := writeTestObject(t, s, "o.dsf", 64*3, 8)
	m, err := s.Manifest("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	moved := m.Parts[1].Blob
	dst := s.targets[1].blobs.path(moved)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.targets[0].blobs.path(moved), dst); err != nil {
		t.Fatal(err)
	}

	r, err := s.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 40); err != nil { // parts 0, 1 and 2
		t.Fatalf("read across a replica-only part: %v", err)
	}
	if !bytes.Equal(buf, data[40:140]) {
		t.Fatal("bytes mismatch through the replica fallback")
	}

	// StatObject falls back the same way, and asks each target's own fault:
	// a manifest present only on the replica is a stat the replica's fault
	// sees, not a raw look at its disk.
	if err := os.Rename(s.targets[0].manifests.path("o.dsf"), s.targets[1].manifests.path("o.dsf")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StatObject("o.dsf"); err != nil {
		t.Fatalf("StatObject of a replica-only manifest: %v", err)
	}
	if n := replicaStats.Load(); n != 1 {
		t.Errorf("replica fault saw %d stats of o.dsf, want 1", n)
	}
}

// TestObjReaderRejectsWrongLengthBlob: a blob one byte longer or shorter
// than its manifest entry is an error, never bytes — even when the range
// asked for lies inside what is there.
func TestObjReaderRejectsWrongLengthBlob(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		s, err := NewObjStore(t.TempDir(), Options{PartSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		writeTestObject(t, s, "o.dsf", 64*2, 9)
		m, err := s.Manifest("o.dsf")
		if err != nil {
			t.Fatal(err)
		}
		path := s.targets[0].blobs.path(m.Parts[0].Blob)
		if err := os.Truncate(path, int64(64+delta)); err != nil {
			t.Fatal(err)
		}
		r, err := s.Open("o.dsf")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := r.ReadAt(make([]byte, 8), 4); err == nil || n != 0 {
			t.Errorf("blob %+d byte: ReadAt = %d, %v; want 0 and an error", delta, n, err)
		}
		// The intact part still reads.
		if _, err := r.ReadAt(make([]byte, 8), 64+4); err != nil {
			t.Errorf("blob %+d byte: intact part: %v", delta, err)
		}
		r.Close()
		s.Close()
	}
}

// TestStatObjectSignature exercises both backends' revalidation signature.
func TestStatObjectSignature(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(dir string) (Backend, error)
	}{
		{"obj", func(dir string) (Backend, error) { return NewObjStore(dir, Options{PartSize: 64}) }},
		{"file", func(dir string) (Backend, error) { return NewFileStore(dir, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			st, ok := b.(ObjectStater)
			if !ok {
				t.Fatalf("%s backend does not implement ObjectStater", tc.name)
			}
			if _, err := st.StatObject("missing.dsf"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("StatObject(missing) = %v, want ErrNotExist", err)
			}
			writeTestObject(t, b, "o.dsf", 200, 5)
			sig, err := st.StatObject("o.dsf")
			if err != nil {
				t.Fatal(err)
			}
			if sig.Size <= 0 || sig.ModTime.IsZero() {
				t.Fatalf("degenerate signature %+v", sig)
			}
			again, err := st.StatObject("o.dsf")
			if err != nil {
				t.Fatal(err)
			}
			if again != sig {
				t.Fatalf("signature not stable: %+v vs %+v", sig, again)
			}
		})
	}
}
