package dsf

import (
	"os"
	"path/filepath"
	"testing"
)

// writeBatchedFile writes one multi-iteration file shaped like the
// pipeline's PersistBatch output: chunks of several iterations and sources
// interleaved in one DSF.
func writeBatchedFile(t *testing.T, path string) {
	t.Helper()
	metas, datas := testChunks(12, 2048) // iterations 0..3 × 3 variables
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("writer", "crash-test")
	if err := w.WriteChunks(metas, datas, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// A writer killed mid-batch leaves a file with no footer; Open must detect
// the truncation at every possible kill point of a multi-iteration file —
// mid-header, mid-chunk, chunk boundaries, mid-TOC, mid-footer — exactly as
// it does for single-iteration files.
func TestBatchedFileTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.dsf")
	writeBatchedFile(t, good)
	full, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Chunks()); got != 12 {
		t.Fatalf("batched file has %d chunks, want 12", got)
	}
	if its := map[int64]bool{}; true {
		for _, m := range r.Chunks() {
			its[m.Iteration] = true
		}
		if len(its) != 4 {
			t.Fatalf("batched file spans %d iterations, want 4", len(its))
		}
	}
	r.Close()

	// Every strict prefix must fail to open: the footer is written last, so
	// any kill point loses it. Step through the file densely enough to hit
	// header, several chunk interiors and boundaries, the TOC and the
	// footer region.
	cuts := []int{0, 1, 7, 8, 9}
	for cut := 64; cut < len(full); cut += len(full) / 97 {
		cuts = append(cuts, cut)
	}
	cuts = append(cuts, len(full)-24, len(full)-23, len(full)-8, len(full)-1)
	p := filepath.Join(dir, "cut.dsf")
	for _, cut := range cuts {
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); err == nil {
			t.Fatalf("file truncated to %d/%d bytes opened without error", cut, len(full))
		}
	}
}

// A writer that dies without Close (the in-process "kill") leaves no footer
// regardless of how much chunk data the OS received; reopening must fail,
// not read garbage.
func TestAbortedWriterDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aborted.dsf")
	// Write well past the bufio buffer so real chunk bytes reach the file,
	// then abandon the writer without Close — footer and TOC never land.
	metas, datas := testChunks(6, 128<<10)
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunks(metas, datas, nil); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= int64(len(headMagic)) {
		t.Fatalf("expected buffered writer to have spilled chunk bytes, file is %d bytes", st.Size())
	}
	if _, err := Open(path); err == nil {
		t.Error("file from aborted writer should fail to open")
	}
	// The file is closed only when the test ends; a crashed process would
	// leave it no different.
}
