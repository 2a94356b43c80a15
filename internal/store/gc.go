package store

import (
	"cmp"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// DefaultGCMinAge is the grace period unreferenced data must reach before
// the sweep may reclaim it. An hour comfortably exceeds any upload's
// lifetime, so parts belonging to in-flight (not yet committed) manifests —
// which are unreferenced *by design*, and seed dedupe for crash retries —
// are never swept out from under their writer.
const DefaultGCMinAge = time.Hour

// GCOptions tune a mark-and-sweep pass.
type GCOptions struct {
	// DryRun reports what would be reclaimed without deleting anything.
	DryRun bool
	// MinAge is the minimum age of unreferenced data before the sweep may
	// touch it (zero keeps DefaultGCMinAge; negative reclaims regardless of
	// age, for tests and explicit force passes).
	MinAge time.Duration
}

// GCReport summarizes one mark-and-sweep pass.
type GCReport struct {
	// Manifests is the number of committed manifests marked from.
	Manifests int
	// LiveParts is the number of distinct content-addressed blobs some
	// manifest references.
	LiveParts int
	// ReclaimedBlobs / ReclaimedBytes count unreferenced content-addressed
	// blobs swept (or, under DryRun, that would be).
	ReclaimedBlobs int
	ReclaimedBytes int64
	// KeptYoung counts unreferenced blobs left alone because they are
	// younger than MinAge — the retry-seeding window for in-flight uploads.
	KeptYoung int
	// ReclaimedTemps counts stale temp files swept from the upload area.
	ReclaimedTemps int
}

// Collector is implemented by backends that can garbage-collect
// unreferenced data; dsf-inspect probes for it behind its -gc flag.
type Collector interface {
	GC(opts GCOptions) (GCReport, error)
}

// GC runs a mark-and-sweep over the store: every blob under the
// content-addressed area (blobs/cas/) that no committed manifest references
// and that is at least MinAge old is deleted, along with equally stale
// upload temporaries. Blobs outside cas/ are never touched — they belong to
// blob-plane users, not the multipart machinery.
//
// Concurrent safety: uploads landing while the sweep runs are younger than
// any sane MinAge, so the age gate (not locking) is what makes online GC
// safe — the same trick S3 lifecycle rules for incomplete multipart uploads
// rely on. A crash mid-upload leaves parts that a retry will dedupe against
// (the whole point of keeping them); once the object's manifest commits they
// become referenced, and if the writer never retries they age past the
// grace window and the next pass reclaims them.
func (s *ObjStore) GC(opts GCOptions) (GCReport, error) {
	var rep GCReport
	cutoff := time.Now().Add(-cmp.Or(opts.MinAge, DefaultGCMinAge))

	// Mark: read every committed manifest once and collect the blobs it
	// references. A decode failure aborts the pass — sweeping with a
	// partial live set could delete referenced parts; a manifest deleted
	// since the listing references nothing.
	live := make(map[string]bool)
	err := s.eachManifest(func(m *Manifest) {
		rep.Manifests++
		for _, p := range m.Parts {
			live[p.Blob] = true
		}
	})
	if err != nil {
		return rep, fmt.Errorf("store: gc: %w", err)
	}
	rep.LiveParts = len(live)

	// Sweep: unreferenced, sufficiently old content-addressed blobs. The
	// sweep removes files directly, not through the tree: reclaiming is not
	// a Delete a fault gets to fail.
	blobs := &s.blobs
	err = blobs.walk("cas/", func(name string, d fs.DirEntry) error {
		if live[name] {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		if fi.ModTime().After(cutoff) {
			rep.KeptYoung++
			return nil
		}
		rep.ReclaimedBlobs++
		rep.ReclaimedBytes += fi.Size()
		if opts.DryRun {
			return nil
		}
		return os.Remove(blobs.path(name))
	})
	if err != nil {
		return rep, fmt.Errorf("store: gc: %w", err)
	}

	// Stale temporaries: torn writes whose process is long gone.
	tmps, err := os.ReadDir(blobs.tmp.Name())
	if err != nil && !os.IsNotExist(err) {
		return rep, fmt.Errorf("store: gc: %w", err)
	}
	for _, e := range tmps {
		if e.IsDir() || !strings.HasPrefix(e.Name(), blobs.tmpPrefix) {
			continue
		}
		fi, err := e.Info()
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		rep.ReclaimedTemps++
		if !opts.DryRun {
			if err := os.Remove(filepath.Join(blobs.tmp.Name(), e.Name())); err != nil {
				return rep, fmt.Errorf("store: gc: %w", err)
			}
		}
	}
	return rep, nil
}
