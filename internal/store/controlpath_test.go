package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestObjStorePutAllocs gates what the object store's control path
// allocates: everything a part upload and a commit do besides moving bytes.
// A steady-state part upload (digest, dedupe probe miss, temp write,
// rename) allocates only its blob name, and what Commit allocates does not
// grow with the parts: the durability stat names its file on the stack, and
// encoding the manifest costs nothing per part.
func TestObjStorePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoders at random")
	}
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 4096, PutWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(4096, 9)
	pt := &objPart{runs: [][]byte{data}, size: int64(len(data))}
	var seq uint64
	upload := func() Part {
		seq++ // fresh content: every upload misses the dedupe probe
		binary.LittleEndian.PutUint64(data, seq)
		part, err := s.uploadPart(pt)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	upload() // the first part makes the fan-out directories
	// The blob name, and nothing else: every *at call builds its names (the
	// temp name too) in a stack buffer, not a heap copy; names are relative
	// to open directories, so no path is built; the temp file is a bare
	// descriptor, not an os.File; the probe's miss is the bare ErrNotExist;
	// and the runs reach the tree's put as they are, through no closure.
	const maxPartAllocs = 1
	if n := testing.AllocsPerRun(50, func() { upload() }); n > maxPartAllocs {
		t.Errorf("a steady-state part upload allocates %.0f times, want at most %d", n, maxPartAllocs)
	}

	commit := func(parts int) float64 {
		m := &Manifest{Object: fmt.Sprintf("o%d.dsf", parts)}
		for range parts {
			p := upload()
			m.Parts = append(m.Parts, p)
			m.Size += p.Size
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.Commit(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := commit(2), commit(18)
	if grow := (many - few) / 16; grow > 0 {
		t.Errorf("commit allocates %.0f for 2 parts and %.0f for 18: %.2f per part, want none",
			few, many, grow)
	}
}

// TestPinnedObjectAllocBytes gates the bytes the store's control path
// allocates for a whole object: a steady-state 8 MiB object written pinned
// at 1 MiB parts, every part new, uploaded by the default pool and
// committed. None of it is part data; ≈3.9 KB by this measure before the
// *at calls named their files from a stack buffer, ≈5.7 KB before puts went
// closure-free and the part list was sized by the previous object, ≈12.3 KB
// before the store named its files relative to open directories.
func TestPinnedObjectAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoders at random")
	}
	const partSize, parts = 1 << 20, 8
	s, err := NewObjStore(t.TempDir(), Options{PartSize: partSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := pattern(parts*partSize, 3)
	var seq uint64
	object := func() {
		for i := 0; i < len(data); i += partSize {
			seq++ // fresh content: every part misses the dedupe probe
			binary.LittleEndian.PutUint64(data[i:], seq)
		}
		w, err := s.Create("o.dsf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WritePinned(data); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	object() // the fan-out directories, the pools
	// The least of eight rounds: a garbage collection empties the pools,
	// and a round it lands in pays for refilling them (with three, one run
	// in five read several hundred bytes over the steady state).
	const rounds, runs, maxBytes = 8, 8, 1712
	least := uint64(math.MaxUint64)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			object()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if least > maxBytes {
		t.Errorf("an 8 MiB pinned object allocates %d bytes in the store, want at most %d", least, maxBytes)
	}
}

// TestManifestReadAllocBytes gates what reading a 9-part manifest back
// allocates — the janitor of a retention policy reads each object's twice,
// the gateway once per object it opens: the decoded strings and a part list
// sized once, the pooled read buffer aside. ≈2.1 KB before the manifest's
// file was named from a stack buffer, ≈3.0 KB before the part list was
// pre-sized and the digests became substrings of the blob names.
func TestManifestReadAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := writeObject(t, s, "node0000_it000001.dsf", pattern(9*1024-7, 5), 4096); len(m.Parts) != 9 {
		t.Fatalf("%d parts, want 9", len(m.Parts))
	}
	const rounds, runs, maxBytes = 3, 50, 2170
	least := uint64(math.MaxUint64)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := s.Manifest("node0000_it000001.dsf"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if least > maxBytes {
		t.Errorf("reading a 9-part manifest allocates %d bytes, want at most %d", least, maxBytes)
	}
}

// TestManifestEncodingMatchesMarshalIndent holds the pooled encoder to the
// bytes json.MarshalIndent(m, "", "  ") and a newline would write, for
// object names JSON must escape (HTML characters, quotes, control and
// non-ASCII characters, the JavaScript line separators) and for an object
// with no parts.
func TestManifestEncodingMatchesMarshalIndent(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"plain.dsf", "a&b.dsf", "<tag>.dsf", `q"uote".dsf`, "tab\there.dsf",
		"héllo-ü-日本.dsf", "line\u2028para\u2029.dsf", "dir/nested.dsf", "empty.dsf"}
	for i, name := range names {
		size := 3000 + i
		if name == "empty.dsf" {
			size = 0
		}
		m := writeObject(t, s, name, pattern(size, byte(i)), 700)
		got, err := os.ReadFile(s.manifests.path(name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%q: manifest on disk\n%s\nwant\n%s", name, got, want)
		}
		back, err := s.Manifest(name)
		if err != nil || back.Object != name || len(back.Parts) != len(m.Parts) {
			t.Errorf("%q: Manifest = %+v, %v", name, back, err)
		}
	}
}

// TestManifestDecodeKeepsNoBufferAlias decodes manifest A, then B through
// the same pooled read buffer: A's strings must survive B's bytes landing
// where A's were.
func TestManifestDecodeKeepsNoBufferAlias(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	writeObject(t, s, "a.dsf", pattern(3000, 1), 3000)
	writeObject(t, s, "b.dsf", pattern(3000, 2), 3000) // same length, other digests
	a, err := s.Manifest("a.dsf")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, p := range a.Parts {
		want = append(want, strings.Clone(p.Blob), strings.Clone(p.SHA256))
	}
	for range 4 {
		if _, err := s.Manifest("b.dsf"); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range a.Parts {
		if p.Blob != want[2*i] || p.SHA256 != want[2*i+1] {
			t.Fatalf("part %d of a.dsf changed under a later decode: %+v, want blob %s", i, p, want[2*i])
		}
	}
}

// TestManifestDigestMustNameItsBlob commits a manifest whose two parts'
// digests are swapped — valid hex of the right length, as a corruption at
// rest could leave them. Commit checks durability, not digests, so it lands;
// reading it back must fail, or the gateway's part cache, keyed by digest,
// would file each blob's bytes under the other part.
func TestManifestDigestMustNameItsBlob(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m := writeObject(t, s, "o.dsf", pattern(2048, 1), 2048)
	if len(m.Parts) != 2 {
		t.Fatalf("%d parts, want 2", len(m.Parts))
	}
	swapped := &Manifest{Object: "swapped.dsf", Size: m.Size, Parts: slices.Clone(m.Parts)}
	swapped.Parts[0].SHA256, swapped.Parts[1].SHA256 = m.Parts[1].SHA256, m.Parts[0].SHA256
	if err := s.Commit(swapped); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Manifest("swapped.dsf"); err == nil || !strings.Contains(err.Error(), "does not name blob") {
		t.Errorf("Manifest of swapped digests = %+v, %v; want the digest error", got, err)
	}
	if got, err := s.Manifest("o.dsf"); err != nil || !slices.Equal(got.Parts, m.Parts) {
		t.Errorf("Manifest(o.dsf) = %+v, %v; want %+v", got, err, m.Parts)
	}
}

// TestObjectsSkipsManifestDeletedMidListing deletes manifests between the
// walk that lists them and their reads: an object deleted since the listing
// is no longer an object, so neither Objects nor GC's mark may fail on it.
func TestObjectsSkipsManifestDeletedMidListing(t *testing.T) {
	root := t.TempDir()
	var mu sync.Mutex
	gets := map[string]int{}     // OpGets of each object's manifest so far
	deleteAt := map[string]int{} // the OpGet that deletes it
	fault := FaultFunc(func(op, name string) error {
		if op != OpGet {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if gets[name]++; gets[name] == deleteAt[name] {
			os.Remove(filepath.Join(root, "manifests", name+".json"))
		}
		return nil
	})
	s, err := NewObjStore(root, Options{PartSize: 1024, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a.dsf", "b.dsf", "c.dsf"} {
		writeObject(t, s, name, pattern(2000, byte(i)), 2000)
	}

	deleteAt["b.dsf"] = 1 // Objects' own read
	objs, err := s.Objects()
	if err != nil {
		t.Fatalf("Objects with b.dsf deleted mid-listing: %v", err)
	}
	if len(objs) != 2 || objs[0].Name != "a.dsf" || objs[1].Name != "c.dsf" || objs[1].Size != 2000 {
		t.Errorf("Objects = %+v, want a.dsf and c.dsf", objs)
	}

	clear(gets)
	deleteAt["c.dsf"] = 1 // GC's mark, its only read of c.dsf
	rep, err := s.GC(GCOptions{DryRun: true, MinAge: -1})
	if err != nil {
		t.Fatalf("GC with c.dsf deleted mid-mark: %v", err)
	}
	if rep.Manifests != 1 {
		t.Errorf("GC marked from %d manifests, want 1 (a.dsf)", rep.Manifests)
	}
}
