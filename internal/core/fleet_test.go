package core

// Live multi-node runs with the telemetry plane attached, under -race in CI:
// cross-rank trace propagation and in-process federation are where a torn
// merge or an unsynchronized registry would surface.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// runFleet deploys ranks x coresPer over one shared backend with the plane
// attached; every dedicated core persists (and traces) under its own world
// rank. onServer, when non-nil, sees each server before its loop starts;
// pace, when non-nil, runs on every client ahead of each write phase. Every
// client writes both testCfg variables for `iters` iterations.
func runFleet(t *testing.T, cfg *config.Config, ranks, coresPer, iters int, backend store.Backend,
	plane *obs.Plane, onServer func(*Server), pace func(clients *mpi.Comm)) {
	t.Helper()
	err := mpi.Run(ranks, coresPer, func(comm *mpi.Comm) {
		me := comm.Rank()
		pers := &DSFPersister{Backend: backend, Node: me / coresPer, ServerID: me}
		pers.SetTracer(plane.Tracer())
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers, Obs: plane})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			if onServer != nil {
				onServer(dep.Server)
			}
			if err := dep.Server.Run(); err != nil {
				t.Error(err)
			}
			return
		}
		cli := dep.Client
		defer cli.Finalize()
		for it := int64(0); it < int64(iters); it++ {
			if pace != nil {
				pace(dep.ClientComm)
			}
			err := cli.WriteFloat32s("temp", it, fieldData(cli.Source()))
			if err == nil {
				err = cli.WriteFloat32s("wind", it, fieldData(-cli.Source()))
			}
			if err == nil {
				err = cli.EndIteration(it)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scrape GETs one route off a live plane and requires a 200.
func scrape(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	return body
}

// A two-node mode="node" run (1 client + 1 dedicated core per node; servers
// are world ranks 1 and 3, rank 1 hosts the global tier) whose shared plane
// federates the per-rank registries in-process: /fleet/metrics must be
// lint-clean, independent of source order and equal to the sum of the
// per-rank scrapes; /epochs must attribute every committed epoch; both wire
// trace legs must be present with the right ranks; /readyz must be 200 once
// the run has quiesced.
func TestFleetLiveGates(t *testing.T) {
	if testing.Short() {
		t.Skip("live aggregated run")
	}
	const ranks, coresPer, iters = 4, 2, 8
	const global, forwarder = 1, 3

	plane := obs.NewPlane(1 << 16)
	fleet := obs.NewFederator()
	plane.SetFederator(fleet)
	backend, err := store.NewObjStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	cfg := testCfg(t, "mutex", 1)
	cfg.AggregateMode = "node"
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 2

	// One private registry per dedicated core, federated on the shared plane.
	rankRegs := map[int]*obs.Registry{global: obs.NewRegistry(), forwarder: obs.NewRegistry()}
	for rank, reg := range rankRegs {
		fleet.AddRegistry(fmt.Sprint(rank), reg)
	}
	runFleet(t, cfg, ranks, coresPer, iters, backend, plane, func(srv *Server) {
		srv.RegisterObs(rankRegs[srv.ID()])
	}, nil)
	if t.Failed() {
		return
	}

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	fleetProm := scrape(t, srv, "/fleet/metrics")
	if err := obs.CheckSamples(fleet.Gather()); err != nil {
		t.Errorf("fleet exposition fails lint: %v", err)
	}
	// A second federator over the same quiesced registries, sources added in
	// the opposite order: the rendering must not care which scrape arrived
	// first.
	rev := obs.NewFederator()
	for _, r := range []int{forwarder, global} {
		rev.AddRegistry(fmt.Sprint(r), rankRegs[r])
	}
	var revBuf bytes.Buffer
	if err := rev.WritePrometheus(&revBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(revBuf.Bytes(), fleetProm) {
		t.Error("fleet exposition bytes depend on source order")
	}

	// Every counter series any rank exposes appears in the fleet view with
	// the sum over the ranks that expose it, and the fleet view invents none
	// (fmt prints a map's keys sorted, so the series key is canonical).
	var fleetDoc obs.MetricsDoc
	if err := json.Unmarshal(scrape(t, srv, "/fleet/metrics.json"), &fleetDoc); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	counters := func(doc []obs.MetricJSON, into map[string]float64) {
		for _, m := range doc {
			if m.Kind == "counter" {
				into[fmt.Sprint(m.Name, m.Labels)] += m.Value
			}
		}
	}
	got, want := map[string]float64{}, map[string]float64{}
	counters(fleetDoc.Metrics, got)
	for _, reg := range rankRegs {
		counters(reg.GatherJSON(), want)
	}
	for series, sum := range want {
		if v, ok := got[series]; !ok || v != sum {
			t.Errorf("fleet counter %s = %v (present=%v), per-rank scrapes sum to %v", series, v, ok, sum)
		}
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Errorf("fleet view carries %d counter series, the ranks expose %d", len(got), len(want))
	}

	var reports []obs.EpochReport
	if err := json.Unmarshal(scrape(t, srv, "/epochs"), &reports); err != nil {
		t.Fatalf("epochs JSON: %v", err)
	}
	seen := map[int64]bool{}
	for _, r := range reports {
		if r.DominantStage == "" || r.SlowestOrigin < 0 {
			t.Errorf("epoch %d left unattributed: %+v", r.Epoch, r)
		}
		seen[r.Epoch] = true
	}
	for e := int64(0); e < iters; e++ {
		if !seen[e] {
			t.Errorf("/epochs is missing committed epoch %d", e)
		}
	}

	// Cross-rank wire legs: one forward per epoch recorded on the global
	// host with the forwarder as origin, one fanack back the other way.
	var forwards, fanacks int
	for _, sp := range plane.Tracer().Snapshot() {
		switch sp.Stage {
		case obs.StageForward:
			forwards++
			if sp.Server != global || sp.Origin != forwarder {
				t.Errorf("forward span on server %d from origin %d, want %d from %d", sp.Server, sp.Origin, global, forwarder)
			}
		case obs.StageFanAck:
			fanacks++
			if sp.Server != forwarder || sp.Origin != global {
				t.Errorf("fanack span on server %d from origin %d, want %d from %d", sp.Server, sp.Origin, forwarder, global)
			}
		}
	}
	if forwards != iters || fanacks != iters {
		t.Errorf("%d forward / %d fanack spans for %d epochs", forwards, fanacks, iters)
	}

	scrape(t, srv, "/readyz") // 200 once quiesced
}

// Critical-path attribution: a two-node mode="core" run (2 clients + 2
// dedicated cores per node) with node 1's object commits delayed. The delay
// rides the commit hook of node0001_* objects only, so the epoch analyzer's
// answer is deterministic: every epoch is dominated by the persist stage,
// and its slowest origin is one of node 1's dedicated cores (ranks 6, 7).
func TestBrownoutAttributionGates(t *testing.T) {
	if testing.Short() {
		t.Skip("live browned-out run")
	}
	const ranks, coresPer, iters = 8, 4, 6
	// Large enough that scheduler jitter (worker pickup latency under the
	// race detector on a loaded box can reach tens of ms) cannot rival the
	// injected delay in any epoch's stage totals.
	const delay = 150 * time.Millisecond
	browned := map[int]bool{6: true, 7: true}

	plane := obs.NewPlane(1 << 16)
	backend, err := store.NewObjStore(t.TempDir(), store.Options{
		Fault: store.FaultFunc(func(op, name string) error {
			if op == store.OpCommit && strings.HasPrefix(name, "node0001") {
				time.Sleep(delay)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	cfg := testCfg(t, "mutex", 2)
	cfg.AggregateMode = "core"
	cfg.PersistWorkers = 1
	// Depth 1 keeps the flow window at one iteration: with a deeper queue
	// the commit delay shows up as queue wait on the *next* epoch and the
	// attribution smears across stages.
	cfg.PersistQueueDepth = 1

	// A compute phase longer than the injected delay: iteration N+1 never
	// queues behind N's browned commit, so each epoch's delay lands in its
	// own persist stage. The barrier keeps the clients in lockstep — the
	// write-stage span runs from first write to iteration complete, and
	// drifting sleeps would let client skew rival the delay.
	runFleet(t, cfg, ranks, coresPer, iters, backend, plane, nil, func(clients *mpi.Comm) {
		time.Sleep(2 * delay)
		clients.Barrier()
	})
	if t.Failed() {
		return
	}

	reports := obs.AnalyzeEpochs(plane.Tracer().Snapshot())
	if len(reports) < iters {
		t.Fatalf("reconstructed %d epochs, want >= %d", len(reports), iters)
	}
	for _, r := range reports {
		if r.DominantStage != "persist" {
			t.Errorf("epoch %d dominated by %q, want persist", r.Epoch, r.DominantStage)
		}
		if !browned[r.SlowestOrigin] {
			t.Errorf("epoch %d slowest origin %d is not on the browned node", r.Epoch, r.SlowestOrigin)
		}
	}
}
