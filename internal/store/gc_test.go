package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

// payload builds a multi-part-sized deterministic byte stream.
func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// commitObject streams data into one committed object.
func commitObject(t *testing.T, s *ObjStore, name string, data []byte) *Manifest {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	m, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ageCAS backdates every content-addressed blob so the sweep's grace window
// does not protect it.
func ageCAS(t *testing.T, s *ObjStore) {
	t.Helper()
	old := time.Now().Add(-2 * DefaultGCMinAge)
	infos, err := s.List("cas/")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if err := os.Chtimes(s.targets[0].blobs.path(info.Name), old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// The GC satellite's core claim: a crash mid-upload leaves unreferenced
// parts that (a) survive a GC pass inside the grace window — they are the
// dedupe seed the retry depends on — and (b) are reclaimed once abandoned
// past it, while parts referenced by committed manifests are never touched
// either way.
func TestGCCrashMidUploadRetrySeedSurvives(t *testing.T) {
	dir := t.TempDir()
	clean, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	committed := commitObject(t, clean, "committed.dsf", payload(4096, 1))

	// A second writer dies mid-upload: the third part's rename never
	// happens, the manifest is never committed.
	faulty, err := NewObjStore(dir, Options{
		PartSize:    1024,
		PutAttempts: 1,
		Fault:       FailNth(OpPutRename, 3, fmt.Errorf("killed mid-part")),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := faulty.Create("inflight.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload(4096, 99)); err == nil {
		if _, err := w.Commit(); err == nil {
			t.Fatal("torn upload must not commit")
		}
	} else {
		_ = w.Abort()
	}
	if _, err := clean.Manifest("inflight.dsf"); err == nil {
		t.Fatal("torn upload left a visible manifest")
	}

	// GC inside the grace window: the in-flight object's surviving parts are
	// unreferenced but young — they must be kept.
	rep, err := clean.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifests != 1 || rep.LiveParts != len(committed.Parts) {
		t.Errorf("mark phase = %+v, want 1 manifest / %d live parts", rep, len(committed.Parts))
	}
	if rep.ReclaimedBlobs != 0 {
		t.Errorf("grace-window GC reclaimed %d blobs", rep.ReclaimedBlobs)
	}
	if rep.KeptYoung == 0 {
		t.Error("no young unreferenced parts recorded — the crash left none behind?")
	}

	// The retry dedupes against the surviving parts and commits.
	retry, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	commitObject(t, retry, "inflight.dsf", payload(4096, 99))
	if st := retry.Stats(); st.DedupeHits == 0 {
		t.Errorf("retry after crash did not dedupe surviving parts: %+v", st)
	}
}

func TestGCReclaimsAbandonedParts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	committed := commitObject(t, s, "keep.dsf", payload(3072, 7))

	// Abandoned upload: parts land, manifest never commits.
	w, err := s.Create("abandoned.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload(2048, 123)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	ageCAS(t, s)

	// Dry run reports without deleting.
	dry, err := s.GC(GCOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.ReclaimedBlobs != 2 {
		t.Fatalf("dry run = %+v, want 2 reclaimable blobs", dry)
	}
	casBlobs, err := s.List("cas/")
	if err != nil {
		t.Fatal(err)
	}
	if len(casBlobs) != len(committed.Parts)+2 {
		t.Errorf("dry run deleted blobs: %d left, want %d", len(casBlobs), len(committed.Parts)+2)
	}

	// The real pass reclaims exactly the abandoned parts.
	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedBlobs != 2 || rep.ReclaimedBytes != 2048 {
		t.Errorf("GC = %+v, want 2 blobs / 2048 bytes", rep)
	}
	// Referenced parts survive and the committed object still restores.
	r, err := s.Open("keep.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, r.Size())
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(3072, 7)) {
		t.Fatal("GC corrupted a committed object")
	}
	// Idempotent: a second pass finds nothing.
	again, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.ReclaimedBlobs != 0 || again.KeptYoung != 0 {
		t.Errorf("second GC = %+v, want nothing to do", again)
	}
}

// Cross-object dedupe means a part may be referenced by several manifests;
// deleting one object's manifest must not let GC touch parts another still
// references.
func TestGCRespectsCrossObjectReferences(t *testing.T) {
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(2048, 42)
	commitObject(t, s, "a.dsf", data)
	commitObject(t, s, "b.dsf", data) // fully deduped against a.dsf
	// Drop a's manifest (simulating object deletion); b still references
	// every part.
	if err := os.Remove(s.targets[0].manifests.path("a.dsf")); err != nil {
		t.Fatal(err)
	}
	ageCAS(t, s)
	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedBlobs != 0 {
		t.Errorf("GC reclaimed %d blobs still referenced by b.dsf", rep.ReclaimedBlobs)
	}
	r, err := s.Open("b.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, r.Size())
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("shared parts were corrupted")
	}
}

// Stale upload temporaries are swept with the same age gate.
func TestGCSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tmp := s.targets[0].blobs.tmp()
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Young temp survives.
	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedTemps != 0 {
		t.Errorf("young temp swept: %+v", rep)
	}
	old := time.Now().Add(-2 * DefaultGCMinAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	rep, err = s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedTemps != 1 {
		t.Errorf("stale temp not swept: %+v", rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale temp still present")
	}
}

// Corrupt manifests must abort the pass before anything is swept — a
// partial live set would delete referenced parts.
func TestGCAbortsOnCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	commitObject(t, s, "ok.dsf", payload(2048, 3))
	if err := os.WriteFile(s.targets[0].manifests.path("bad.dsf"), []byte(`{"object":"bad.dsf","size":-5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ageCAS(t, s)
	if _, err := s.GC(GCOptions{}); err == nil {
		t.Fatal("GC over a corrupt manifest must fail, not sweep")
	}
	// Nothing was deleted.
	blobs, err := s.List("cas/")
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Errorf("blobs = %d, want 2 untouched", len(blobs))
	}
}

// A dedupe hit must refresh the blob's mtime: online GC's age gate treats
// "recently deduped against" as "recently used", so a sweep racing an
// in-flight writer's dedupe-then-commit window can never reclaim a part a
// just-committed manifest references.
func TestDedupeHitRefreshesBlobAge(t *testing.T) {
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(1024, 5)
	part, err := s.uploadPart(data)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * DefaultGCMinAge)
	if err := os.Chtimes(s.targets[0].blobs.path(part.Blob), old, old); err != nil {
		t.Fatal(err)
	}
	// Unreferenced and aged: a sweep right now would take it.
	rep, err := s.GC(GCOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedBlobs != 1 {
		t.Fatalf("aged part not reclaimable: %+v", rep)
	}
	// The dedupe hit of a new writer makes it young again.
	if _, err := s.uploadPart(data); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DedupeHits != 1 {
		t.Fatalf("expected a dedupe hit, stats = %+v", st)
	}
	rep, err = s.GC(GCOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimedBlobs != 0 || rep.KeptYoung != 1 {
		t.Errorf("deduped part still reclaimable: %+v", rep)
	}
}
