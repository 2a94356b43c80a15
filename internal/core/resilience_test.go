package core

// Deploy-level overload resilience: the unit tests in scratch_test.go and
// internal/store pin the spill and hedge mechanics one at a time; these runs
// hold them composed, on the real middleware path over a faulted obj://
// backend.

import (
	"bytes"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"damaris/internal/obs"
	"damaris/internal/store"
)

// readStoreTree reads the durable planes of an obj:// root — blobs/ and
// manifests/, not the tmp/ staging area — into a path -> bytes map.
func readStoreTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, plane := range []string{"blobs", "manifests"} {
		err := fs.WalkDir(os.DirFS(root), plane, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			out[path], err = os.ReadFile(filepath.Join(root, path))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A brownout (5x put latency plus a 20% deterministic put error rate, at
// peak from the first put) behind a 1-deep queue with one writer: with a
// scratch store the flow window is what the shared buffer holds, far past the
// queue, so the event loop overflows and the scratch spill engages. Nothing
// may be lost or reordered — the browned-out store tree must equal the
// healthy run's byte
// for byte — and the attached telemetry plane must show the same run a
// scraper would: the spill counter equal to the run's count, a quiesced
// exposition that repeats byte for byte, spill and persist spans in the
// trace.
func TestDeployBrownoutSpillsReplaysByteIdentical(t *testing.T) {
	const iters = 36
	// The clients write flat out, so any put latency at all is sustained
	// backpressure; at 5x this one the writer holds each put ~50 ms while
	// the event loop keeps submitting.
	const baseLat = 10 * time.Millisecond
	run := func(fault store.Fault, plane *obs.Plane) (PipelineStats, map[string][]byte, time.Duration) {
		root := t.TempDir()
		backend, err := store.NewObjStore(root, store.Options{
			Fault:       fault,
			PutAttempts: 10, // the brownout's error rate must be absorbable
		})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		cfg := sizesCfg(t, 1, 1, 0)
		cfg.SpillDir = t.TempDir()
		cfg.SpillAfter = 2
		pers := &DSFPersister{Backend: backend}
		pers.SetTracer(plane.Tracer())
		start := time.Now()
		ps, _ := runNode(t, cfg, Options{Persister: pers, Obs: plane}, iters)
		return ps, readStoreTree(t, root), time.Since(start)
	}

	_, healthyTree, healthyWall := run(store.Latency(baseLat, store.OpPut), nil)
	plane := obs.NewPlane(1 << 16)
	ps, brownTree, brownWall := run(store.Chain(
		store.Latency(baseLat, store.OpPut),
		// The ramp's midpoint sits at t0: peak intensity for the whole run.
		store.Brownout(time.Now().Add(-15*time.Second), 30*time.Second, 5*baseLat, 0.2, store.OpPut),
	), plane)
	if t.Failed() {
		return
	}
	// Wall clock is recorded, never gated.
	t.Logf("brownout run %v vs healthy %v (x%.1f); spilled %d of %d, window %d, %d store retries",
		brownWall, healthyWall, float64(brownWall)/float64(healthyWall),
		ps.Spill.Spilled, iters, ps.Window, ps.Store.Retries)

	if ps.Spill.Spilled == 0 {
		t.Fatal("brownout never engaged the scratch spill")
	}
	if ps.Spill.Replayed != ps.Spill.Spilled || ps.Spill.Pending != 0 || ps.Spill.Stranded != 0 {
		t.Errorf("spill backlog not fully replayed: %+v", ps.Spill)
	}
	if ps.Completed != iters || ps.Failures != 0 {
		t.Errorf("pipeline completed %d with %d failures, want %d/0", ps.Completed, ps.Failures, iters)
	}
	if len(healthyTree) == 0 || len(brownTree) != len(healthyTree) {
		t.Fatalf("browned-out store holds %d files, healthy %d", len(brownTree), len(healthyTree))
	}
	for path, want := range healthyTree {
		if !bytes.Equal(brownTree[path], want) {
			t.Errorf("%s differs between the healthy and the browned-out run", path)
		}
	}

	// A scraper rejects the whole page on a duplicate series or a split
	// TYPE block: the full live plane must pass the collision scan.
	if err := plane.Registry().CheckExposition(); err != nil {
		t.Errorf("live exposition unparseable: %v", err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()
	if !bytes.Equal(withoutRuntime(scrape(t, srv, "/metrics")), withoutRuntime(scrape(t, srv, "/metrics"))) {
		t.Error("back-to-back quiesced Prometheus scrapes differ beyond the runtime's own figures")
	}
	var spilledGathered float64
	for _, s := range plane.Registry().Gather() {
		if s.Name == "damaris_spill_spilled_total" {
			spilledGathered += s.Value
		}
	}
	if int64(spilledGathered) != ps.Spill.Spilled {
		t.Errorf("gathered damaris_spill_spilled_total = %v, the run spilled %d", spilledGathered, ps.Spill.Spilled)
	}
	stages := map[obs.Stage]int{}
	for _, sp := range plane.Tracer().Snapshot() {
		stages[sp.Stage]++
	}
	if stages[obs.StageSpill] == 0 || stages[obs.StagePersist] == 0 {
		t.Errorf("lifecycle trace has %d spill and %d persist spans, want both > 0",
			stages[obs.StageSpill], stages[obs.StagePersist])
	}
}
