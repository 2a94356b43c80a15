package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// goldenField is a deterministic float32 payload whose values survive a
// codec round trip bit-exactly.
func goldenField(seed int, n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(seed)*1000 + float32(i)*0.5
	}
	return xs
}

// writeGolden writes one DSF file with two chunks per codec-irrelevant
// iteration and returns its path and the payloads by chunk order.
func writeGolden(t *testing.T, dir string, codec dsf.Codec) (string, [][]float32) {
	t.Helper()
	path := filepath.Join(dir, "golden_"+codec.String()+".dsf")
	path = strings.ReplaceAll(path, "+", "_") // shuffle+gzip → filesystem-safe
	w, err := dsf.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("writer", "golden-test")
	lay := layout.MustNew(layout.Float32, 16, 8)
	var fields [][]float32
	for it := int64(0); it < 2; it++ {
		for src := 0; src < 2; src++ {
			field := goldenField(int(it)*10+src, 16*8)
			fields = append(fields, field)
			meta := dsf.ChunkMeta{
				Name:      "theta",
				Iteration: it,
				Source:    src,
				Layout:    lay,
				Codec:     codec,
			}
			if err := w.WriteChunk(meta, mpi.Float32sToBytes(field)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, fields
}

// TestGoldenRoundTripAllCodecs writes golden files with every codec and
// round-trips them through the same reader path dsf-inspect uses,
// verifying chunk-level metadata, checksums and bit-exact payloads.
func TestGoldenRoundTripAllCodecs(t *testing.T) {
	dir := t.TempDir()
	for _, codec := range []dsf.Codec{dsf.None, dsf.Gzip, dsf.ShuffleGzip} {
		t.Run(codec.String(), func(t *testing.T) {
			path, fields := writeGolden(t, dir, codec)

			// The inspect entry point itself (verify + stats) must succeed.
			if err := inspect(path, true, true); err != nil {
				t.Fatalf("inspect: %v", err)
			}

			r, err := dsf.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := len(r.Chunks()); got != 4 {
				t.Fatalf("chunks = %d, want 4", got)
			}
			if r.Attributes()["writer"] != "golden-test" {
				t.Errorf("attributes = %v", r.Attributes())
			}
			for i, m := range r.Chunks() {
				if m.Codec != codec {
					t.Errorf("chunk %d codec = %v, want %v", i, m.Codec, codec)
				}
				b, err := r.ReadChunk(i)
				if err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
				if !bytes.Equal(b, mpi.Float32sToBytes(fields[i])) {
					t.Errorf("chunk %d payload mismatch after %v round trip", i, codec)
				}
			}
			// Compressed codecs must actually compress this smooth field.
			if codec != dsf.None {
				for i, m := range r.Chunks() {
					if m.Stored >= m.RawSize {
						t.Errorf("chunk %d not compressed: %d -> %d", i, m.RawSize, m.Stored)
					}
				}
			}
			// Find by tuple, as downstream tools do.
			if i := r.Find("theta", 1, 1); i < 0 {
				t.Error("Find lost a tuple")
			}
		})
	}
}

// corrupt copies src to dst applying f to the file bytes.
func corrupt(t *testing.T, src, dst string, f func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, f(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedAndTruncatedFiles drives every corruption error path of the
// reader dsf-inspect relies on: truncated footer, bad magics, payload
// bit-flips caught by CRC, and inconsistent footer geometry.
func TestCorruptedAndTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	good, _ := writeGolden(t, dir, dsf.ShuffleGzip)

	t.Run("truncated-mid-file", func(t *testing.T) {
		p := filepath.Join(dir, "truncated.dsf")
		corrupt(t, good, p, func(b []byte) []byte { return b[:len(b)/2] })
		if err := inspect(p, true, false); err == nil {
			t.Error("truncated file should fail to open")
		}
	})

	t.Run("truncated-to-header", func(t *testing.T) {
		p := filepath.Join(dir, "header-only.dsf")
		corrupt(t, good, p, func(b []byte) []byte { return b[:8] })
		err := inspect(p, false, false)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("header-only file error = %v, want truncation", err)
		}
	})

	t.Run("bad-head-magic", func(t *testing.T) {
		p := filepath.Join(dir, "badmagic.dsf")
		corrupt(t, good, p, func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		})
		if err := inspect(p, false, false); err == nil {
			t.Error("bad header magic should fail")
		}
	})

	t.Run("payload-bitflip-caught-by-crc", func(t *testing.T) {
		p := filepath.Join(dir, "bitflip.dsf")
		corrupt(t, good, p, func(b []byte) []byte {
			b[16] ^= 0x01 // inside the first chunk's stored bytes
			return b
		})
		// The TOC is intact, so listing succeeds without -verify...
		if err := inspect(p, false, false); err != nil {
			t.Errorf("listing a bit-flipped file should still work, got %v", err)
		}
		// ...but -verify must catch the flip through the CRC.
		err := inspect(p, true, false)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("verify error = %v, want checksum mismatch", err)
		}
	})

	t.Run("footer-geometry-lie", func(t *testing.T) {
		p := filepath.Join(dir, "badfooter.dsf")
		corrupt(t, good, p, func(b []byte) []byte {
			// Footer layout: [toc offset][toc length][magic]; shrink the
			// recorded toc length so offset+len+24 != file size.
			b[len(b)-16] ^= 0x04
			return b
		})
		if err := inspect(p, false, false); err == nil {
			t.Error("inconsistent footer should fail")
		}
	})

	t.Run("not-a-dsf-file", func(t *testing.T) {
		p := filepath.Join(dir, "noise.dsf")
		if err := os.WriteFile(p, []byte("this is not a dsf file at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := inspect(p, false, false); err == nil {
			t.Error("arbitrary bytes should fail to open")
		}
	})

	t.Run("missing-file", func(t *testing.T) {
		if err := inspect(filepath.Join(dir, "nope.dsf"), false, false); err == nil {
			t.Error("missing file should fail")
		}
	})
}

// writeBatched writes one multi-iteration file the way the write-behind
// pipeline's batched persister does: several iterations' chunks in a single
// DSF.
func writeBatched(t *testing.T, dir string, iters int) string {
	t.Helper()
	path := filepath.Join(dir, "batched.dsf")
	w, err := dsf.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("writer", "batched-test")
	lay := layout.MustNew(layout.Float32, 16, 8)
	var metas []dsf.ChunkMeta
	var datas [][]byte
	for it := int64(0); it < int64(iters); it++ {
		for src := 0; src < 2; src++ {
			metas = append(metas, dsf.ChunkMeta{
				Name: "theta", Iteration: it, Source: src,
				Layout: lay, Codec: dsf.ShuffleGzip,
			})
			datas = append(datas, mpi.Float32sToBytes(goldenField(int(it)*10+src, 16*8)))
		}
	}
	pool := dsf.NewEncodePool(2)
	defer pool.Close()
	if err := w.WriteChunks(metas, datas, pool); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBatchedMultiIterationFiles drives dsf-inspect over multi-iteration
// (pipeline-batched) files: a healthy one lists and verifies like any
// single-iteration file, and truncated variants — a writer killed mid-batch
// — fail as cleanly.
func TestBatchedMultiIterationFiles(t *testing.T) {
	dir := t.TempDir()
	good := writeBatched(t, dir, 4)

	if err := inspect(good, true, true); err != nil {
		t.Fatalf("healthy batched file: %v", err)
	}
	r, err := dsf.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Chunks()); got != 8 {
		t.Errorf("chunks = %d, want 8 (4 iterations × 2 sources)", got)
	}
	r.Close()

	for _, tc := range []struct {
		name string
		cut  func(n int) int
	}{
		{"mid-first-iteration", func(n int) int { return n / 8 }},
		{"mid-batch", func(n int) int { return n / 2 }},
		{"footer-lost", func(n int) int { return n - 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".dsf")
			corrupt(t, good, p, func(b []byte) []byte { return b[:tc.cut(len(b))] })
			err := inspect(p, true, false)
			if err == nil {
				t.Fatal("truncated batched file should fail to open")
			}
			if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "footer") {
				t.Errorf("error %v should identify truncation", err)
			}
		})
	}
}

// writeGoldenToBackend streams the golden chunk set into a storage backend
// object.
func writeGoldenToBackend(t *testing.T, b store.Backend, name string) [][]float32 {
	t.Helper()
	ow, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dsf.NewWriter(ow)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.MustNew(layout.Float32, 16, 8)
	var fields [][]float32
	for it := int64(0); it < 2; it++ {
		for src := 0; src < 2; src++ {
			field := goldenField(int(it)*10+src, 16*8)
			fields = append(fields, field)
			meta := dsf.ChunkMeta{Name: "theta", Iteration: it, Source: src,
				Layout: lay, Codec: dsf.ShuffleGzip}
			if err := w.WriteChunk(meta, mpi.Float32sToBytes(field)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Commit(); err != nil {
		t.Fatal(err)
	}
	return fields
}

// The -store path: DSF objects written into either backend must list and
// verify through the manifest-resolving reader, including multipart
// object-store layouts.
func TestInspectStoreBackends(t *testing.T) {
	fileDir, objDir := t.TempDir(), t.TempDir()
	fb, err := store.NewFileStore(fileDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := store.NewObjStore(objDir, store.Options{PartSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	writeGoldenToBackend(t, fb, "golden.dsf")
	writeGoldenToBackend(t, ob, "golden.dsf")

	// All-object listing plus explicit names, with verification.
	if err := inspectStore("file://"+fileDir, nil, true, true); err != nil {
		t.Errorf("inspect file backend: %v", err)
	}
	if err := inspectStore("obj://"+objDir, nil, true, true); err != nil {
		t.Errorf("inspect obj backend: %v", err)
	}
	if err := inspectStore("obj://"+objDir, []string{"golden.dsf"}, true, false); err != nil {
		t.Errorf("inspect named object: %v", err)
	}
	if err := inspectStore("obj://"+objDir, []string{"missing.dsf"}, false, false); err == nil {
		t.Error("inspecting a missing object should fail")
	}
	if err := inspectStore("bogus://x", nil, false, false); err == nil {
		t.Error("unknown scheme should fail")
	}

	// A corrupted part must fail verification loudly.
	blobs, err := ob.List("cas/")
	if err != nil || len(blobs) == 0 {
		t.Fatalf("parts = %v, %v", blobs, err)
	}
	path := filepath.Join(objDir, "blobs", blobs[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectStore("obj://"+objDir, []string{"golden.dsf"}, true, false); err == nil {
		t.Error("corrupted part should fail verification")
	}
}

// Aggregated per-node objects must surface their fan-in provenance: the
// contributing servers recorded by the aggregation leader (and the nodes an
// archived object from the former cross-node tier lists).
func TestInspectListsContributingServers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node0000_it000000.dsf")
	w, err := dsf.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("writer", "damaris-aggregator")
	w.SetAttribute("aggregate", "core")
	w.SetAttribute("servers", "2,3")
	lay := layout.MustNew(layout.Float32, 8)
	if err := w.WriteChunk(dsf.ChunkMeta{Name: "theta", Layout: lay},
		mpi.Float32sToBytes(goldenField(1, 8))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := inspect(path, false, false); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "contributing servers: 2,3") {
		t.Errorf("inspect output lacks contributor line:\n%s", out)
	}
}

// The -gc path end to end: a crashed upload's parts survive the grace
// window, are reported by a dry run, and an aged force pass reclaims them
// while the committed object stays restorable.
func TestGCCommand(t *testing.T) {
	dir := t.TempDir()
	ob, err := store.NewObjStore(dir, store.Options{PartSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	writeGoldenToBackend(t, ob, "golden.dsf")
	// Abandoned upload leaves unreferenced parts.
	ow, err := ob.Create("abandoned.dsf")
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4096)
	for i := range junk {
		junk[i] = byte(i % 251) // period coprime to the part size: distinct parts
	}
	if _, err := ow.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := ow.Abort(); err != nil {
		t.Fatal(err)
	}

	// Grace window: nothing reclaimed.
	if err := runGC("obj://"+dir, false, store.DefaultGCMinAge); err != nil {
		t.Fatal(err)
	}
	rep, err := ob.GC(store.GCOptions{DryRun: true, MinAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedBlobs != 2 {
		t.Fatalf("expected 2 reclaimable blobs after grace-window pass, got %+v", rep)
	}

	// Force pass (negative min age): the abandoned parts go.
	if err := runGC("obj://"+dir, false, -1); err != nil {
		t.Fatal(err)
	}
	after, err := ob.GC(store.GCOptions{DryRun: true, MinAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	if after.ReclaimedBlobs != 0 {
		t.Errorf("force GC left %d reclaimable blobs", after.ReclaimedBlobs)
	}
	// The committed object still inspects and verifies.
	if err := inspectStore("obj://"+dir, []string{"golden.dsf"}, true, false); err != nil {
		t.Errorf("committed object broken after GC: %v", err)
	}
	// File backends cannot GC.
	if err := runGC("file://"+t.TempDir(), false, 0); err == nil {
		t.Error("file backend GC should report unsupported")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
