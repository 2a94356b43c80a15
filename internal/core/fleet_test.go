package core

// Live multi-node runs with the telemetry plane attached, under -race in CI:
// cross-rank epoch attribution and several servers collecting on one
// registry are where an unsynchronized collector would surface.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/gateway"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// runFleet deploys ranks x coresPer over one shared backend with the plane
// attached; every dedicated core persists (and traces) under its own world
// rank. pace, when non-nil, runs on every client ahead of each write phase.
// Every client writes both testCfg variables for `iters` iterations.
func runFleet(t *testing.T, cfg *config.Config, ranks, coresPer, iters int, backend store.Backend,
	plane *obs.Plane, pace func(clients *mpi.Comm)) {
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
			err := cli.Write("temp", it, mpi.Float32sToBytes(fieldData(comm.Rank())))
			if err == nil {
				err = cli.Write("wind", it, mpi.Float32sToBytes(fieldData(-comm.Rank())))
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

// serverLabel finds a sample's server label, with the comma that joins it
// to its neighbours, so the rest of the series is what the servers share.
var serverLabel = regexp.MustCompile(`,?server="([^"]*)"`)

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

// withoutRuntime drops the damaris_runtime_* lines of an exposition: the
// runtime's heap and GC figures move with every allocation, a scrape's own
// included, so no two gathers need agree on them.
func withoutRuntime(expo []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(expo, []byte("\n")) {
		if !bytes.Contains(line, []byte("damaris_runtime_")) {
			out = append(out, line...)
		}
	}
	return out
}

// A two-node mode="core" run (1 client + 1 dedicated core per node; servers
// are world ranks 1 and 3, each its node's aggregation leader) on one shared
// plane, whose registry is the only one: /metrics must be lint-clean, carry
// each server's damaris_server_* series exactly once per server label, and,
// once the run has quiesced, be the bytes damaris-run's end-of-run report
// prints, the runtime's own figures aside; /epochs must attribute every
// committed epoch; /readyz must be 200.
func TestFleetLiveGates(t *testing.T) {
	if testing.Short() {
		t.Skip("live aggregated run")
	}
	const ranks, coresPer, iters = 4, 2, 8

	plane := obs.NewPlane(1 << 16)
	backend, err := store.NewObjStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	cfg := testCfg(t, "mutex", 1)
	cfg.AggregateMode = "core"
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 2

	runFleet(t, cfg, ranks, coresPer, iters, backend, plane, nil)
	if t.Failed() {
		return
	}

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	prom := scrape(t, srv, "/metrics")
	if err := plane.Registry().CheckExposition(); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}
	var report bytes.Buffer
	if err := obs.WriteSamples(&report, plane.Registry().Gather()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withoutRuntime(prom), withoutRuntime(report.Bytes())) {
		t.Error("quiesced /metrics differs from the end-of-run report's bytes")
	}

	// Every damaris_server_* series, its server label set aside, appears
	// once for each dedicated core and for no other rank.
	servers := map[string]map[string]int{}
	for _, line := range strings.Split(string(prom), "\n") {
		if !strings.HasPrefix(line, "damaris_server_") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		m := serverLabel.FindStringSubmatchIndex(series)
		if m == nil {
			t.Errorf("%s carries no server label", series)
			continue
		}
		key := series[:m[0]] + series[m[1]:]
		if servers[key] == nil {
			servers[key] = map[string]int{}
		}
		servers[key][series[m[2]:m[3]]]++
	}
	if len(servers) == 0 {
		t.Fatal("/metrics carries no damaris_server_* series")
	}
	for key, by := range servers {
		if len(by) != 2 || by["1"] != 1 || by["3"] != 1 {
			t.Errorf("%s: series per server label %v, want server 1 and 3 once each", key, by)
		}
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
	runFleet(t, cfg, ranks, coresPer, iters, backend, plane, func(clients *mpi.Comm) {
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

// summaryFamilies are the registry's summary families a deployment and a
// gateway fill from their histograms.
var summaryFamilies = []string{
	"damaris_pipeline_depth", "damaris_pipeline_flush_seconds", "damaris_pipeline_batch_size",
	"damaris_server_write_seconds", "damaris_encode_seconds",
	"damaris_store_put_seconds", "damaris_store_get_seconds", "damaris_gateway_fetch_seconds",
	"damaris_aggregate_ring_depth", "damaris_aggregate_durability_window_epochs",
}

// checkSummaries requires every summary series of a gather with a positive
// _count to hold _min ≤ q0.5 ≤ q0.95 ≤ q0.99 ≤ _max (a series without _min
// or _max is bounded by ∓Inf there), and returns the families that have one.
func checkSummaries(t *testing.T, what string, samples []obs.Sample) map[string]bool {
	t.Helper()
	type series struct{ count, min, q50, q95, q99, max float64 }
	all := map[string]*series{}
	for _, s := range samples {
		if s.Kind != obs.KindSummary {
			continue
		}
		var labels []string
		quantile := ""
		for i := 0; i < len(s.Labels); i += 2 {
			if s.Labels[i] == "quantile" {
				quantile = s.Labels[i+1]
			} else {
				labels = append(labels, s.Labels[i]+"="+s.Labels[i+1])
			}
		}
		family, field := s.Name, quantile
		if quantile == "" {
			for _, suffix := range []string{"_count", "_sum", "_min", "_max"} {
				if base, ok := strings.CutSuffix(s.Name, suffix); ok {
					family, field = base, suffix
				}
			}
		}
		key := family + "{" + strings.Join(labels, ",") + "}"
		sr := all[key]
		if sr == nil {
			sr = &series{min: math.Inf(-1), max: math.Inf(1)}
			all[key] = sr
		}
		switch field {
		case "0.5":
			sr.q50 = s.Value
		case "0.95":
			sr.q95 = s.Value
		case "0.99":
			sr.q99 = s.Value
		case "_count":
			sr.count = s.Value
		case "_min":
			sr.min = s.Value
		case "_max":
			sr.max = s.Value
		}
	}
	filled := map[string]bool{}
	for key, sr := range all {
		if sr.count == 0 {
			continue
		}
		filled[key[:strings.IndexByte(key, '{')]] = true
		if !(sr.min <= sr.q50 && sr.q50 <= sr.q95 && sr.q95 <= sr.q99 && sr.q99 <= sr.max) {
			t.Errorf("%s: %s: min %g, quantiles %g/%g/%g, max %g are out of order",
				what, key, sr.min, sr.q50, sr.q95, sr.q99, sr.max)
		}
	}
	return filled
}

// Every summary the registry emits orders its figures: _min ≤ p50 ≤ p95 ≤
// p99 ≤ _max wherever _count > 0. One two-node mode="core" deployment over
// an object store with an encode pool, and one gateway reading what it
// wrote, fill every family a histogram feeds.
func TestSummaryQuantilesWithinExtremes(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(t, "mutex", 2)
	cfg.AggregateMode = "core"
	cfg.PersistBackend = "obj://" + dir
	cfg.PersistCodec = "shuffle+gzip"
	cfg.EncodeWorkers = 1
	cfg.PersistWorkers = 1
	plane := obs.NewPlane(0)
	runAggregated(t, cfg, Options{Obs: plane}, 4)
	filled := checkSummaries(t, "deployment", plane.Registry().Gather())

	b, err := store.Open("obj://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gplane := obs.NewPlane(0)
	g, err := gateway.New(gateway.Config{Backend: b, Obs: gplane})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := g.Objects()
	if err != nil || len(objs) == 0 {
		t.Fatalf("objects %v, %v", objs, err)
	}
	for _, o := range objs {
		if _, _, err := g.ReadChunk(o.Name, 0); err != nil {
			t.Fatal(err)
		}
	}
	for f := range checkSummaries(t, "gateway", gplane.Registry().Gather()) {
		filled[f] = true
	}
	for _, f := range summaryFamilies {
		if !filled[f] {
			t.Errorf("no gather fills %s", f)
		}
	}
}
