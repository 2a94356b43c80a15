// Command damaris-run executes the real middleware pipeline: the CM1-like
// mini-app on an in-process MPI world with one dedicated I/O core per node,
// writing DSF files through Damaris — or through the file-per-process /
// collective baselines for comparison.
//
// Usage:
//
//	damaris-run -ranks 12 -cores-per-node 4 -steps 20 -output-every 5 -out /tmp/out
//	damaris-run -backend fpp ...
//	damaris-run -backend collective ...
//	damaris-run -persist-backend obj:///tmp/objects -store-part-size 1048576
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
	"damaris/internal/transform"
)

// options are the flags that describe the run itself; every knob of the
// middleware is a flag config.BindFlags declares from the same table that
// reads the XML.
type options struct {
	ranks, coresPerNode, steps, outputEvery, traceRing int
	outDir, backend, metricsAddr, traceOut             string
	compress                                           bool
	bufMB                                              int64
}

func main() {
	var o options
	flag.IntVar(&o.ranks, "ranks", 12, "total ranks (cores) in the world")
	flag.IntVar(&o.coresPerNode, "cores-per-node", 4, "SMP node width")
	flag.IntVar(&o.steps, "steps", 20, "simulation timesteps")
	flag.IntVar(&o.outputEvery, "output-every", 5, "write phase every K steps")
	flag.StringVar(&o.outDir, "out", "damaris-out", "output directory")
	flag.StringVar(&o.backend, "backend", "damaris", "damaris | fpp | collective")
	flag.BoolVar(&o.compress, "compress", false, "gzip chunks (damaris and fpp)")
	flag.Int64Var(&o.bufMB, "buffer-mb", 64, "per-node shared buffer (MiB)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live telemetry over HTTP on this address (/metrics Prometheus text, /metrics.json, /trace, /jitter, /debug/pprof); empty disables")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"write the retained lifecycle spans as JSONL to this file at exit (read back with dsf-inspect -trace)")
	flag.IntVar(&o.traceRing, "trace-ring", 0,
		"lifecycle-trace ring capacity in spans, rounded up to a power of two (0 = default)")
	cfg := &config.Config{}
	cfg.BindFlags(flag.CommandLine)
	flag.Parse()

	if err := run(cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "damaris-run:", err)
		os.Exit(1)
	}
}

// run executes one world. cfg carries the knobs as the flags left them; run
// adds what the mini-app declares (buffer, layouts, variables, events) and
// validates the whole before any rank starts.
func run(cfg *config.Config, o options) error {
	if o.ranks%o.coresPerNode != 0 {
		return fmt.Errorf("ranks %d not a multiple of cores-per-node %d", o.ranks, o.coresPerNode)
	}
	if !slices.Contains([]string{"damaris", "fpp", "collective"}, o.backend) {
		return fmt.Errorf("unknown -backend %q (want damaris, fpp or collective)", o.backend)
	}
	nodes := o.ranks / o.coresPerNode

	// One telemetry plane for the whole in-process world: every dedicated
	// core records spans and registers collectors against it, so a single
	// scrape (or the end-of-run report, which reads the same registry) covers
	// the run. The fleet federator merges rank-local registries — each
	// dedicated core registers its collectors on a private registry too as
	// it deploys — so /fleet/metrics shows the same figures rank by rank,
	// exactly as a multi-process fleet would expose them.
	plane := obs.NewPlane(o.traceRing)
	fleet := obs.NewFederator()
	plane.SetFederator(fleet)
	if o.metricsAddr != "" {
		ln, lerr := net.Listen("tcp", o.metricsAddr)
		if lerr != nil {
			return fmt.Errorf("metrics listener: %w", lerr)
		}
		srv := &http.Server{Handler: plane.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /metrics.json /fleet/metrics /epochs /trace /jitter /readyz /debug/pprof)\n", ln.Addr())
	}
	computeRanks := o.ranks
	if o.backend == "damaris" {
		computeRanks = o.ranks - nodes // one dedicated core per node
	}
	params := cm1.DefaultParams(computeRanks, 1)

	codec := dsf.None
	if o.compress {
		codec = dsf.ShuffleGzip
	}

	var mu sync.Mutex
	var phaseTimes []float64
	var serverWrite []float64
	var serverSpare []float64
	var bytesWritten int64
	var pipeStats []core.PipelineStats
	var shardBudgets [][2]int // engaged spare-core budget and shard reservation, per dedicated core

	var sharedStore store.Backend
	if o.backend == "damaris" {
		decl, err := config.ParseString(cm1.ConfigXML(params, o.bufMB<<20, cfg.Allocator, 1))
		if err != nil {
			return err
		}
		cfg.BufferSize, cfg.DedicatedCores = decl.BufferSize, decl.DedicatedCores
		cfg.Layouts, cfg.Variables, cfg.Events = decl.Layouts, decl.Variables, decl.Events
		if err := cfg.Validate(); err != nil {
			return err
		}
		if cfg.PersistBackend != "" {
			// One backend instance shared by every dedicated core, so the
			// run's store metrics (and the object store's dedupe) span the
			// whole node set — mirroring a real shared storage service.
			sharedStore, err = store.OpenWith(cfg.PersistBackend, cfg.StoreOptions())
			if err != nil {
				return err
			}
			defer sharedStore.Close()
		}
	}

	err := mpi.Run(o.ranks, o.coresPerNode, func(comm *mpi.Comm) {
		var b cm1.Backend
		var computeComm *mpi.Comm

		switch o.backend {
		case "damaris":
			pers := &core.DSFPersister{Dir: o.outDir, Backend: sharedStore, Codec: codec,
				GzipLevel: cfg.PersistGzipLevel, Node: comm.Node(), ServerID: comm.Rank()}
			pers.SetTracer(plane.Tracer())
			dep, err := core.Deploy(comm, cfg, nil, core.Options{OutputDir: o.outDir, Persister: pers, Obs: plane})
			if err != nil {
				panic(err)
			}
			if !dep.IsClient() {
				// This rank's persister is private to this server, so the
				// server rank owns the encode pool lifecycle (the server
				// only auto-wires pools and tracers for persisters it
				// creates itself).
				pool := dsf.NewEncodePool(cfg.EncodeWorkers)
				pool.SetTracer(plane.Tracer(), comm.Rank())
				pers.SetEncodePool(pool)
				defer pool.Close()
				// This rank's slice of the fleet view: a private registry
				// carrying only this dedicated core's collectors, merged by
				// the federator behind /fleet/metrics.
				rankReg := obs.NewRegistry()
				dep.Server.RegisterObs(rankReg)
				fleet.AddRegistry(fmt.Sprint(comm.Rank()), rankReg)
				if err := dep.Server.Run(); err != nil {
					panic(err)
				}
				mu.Lock()
				serverWrite = append(serverWrite, dep.Server.WriteTimes()...)
				serverSpare = append(serverSpare, dep.Server.SpareSeconds())
				bytesWritten += dep.Server.BytesWritten()
				pipeStats = append(pipeStats, dep.Server.PipelineStats())
				budget, reserved := dep.Server.SpareBudget()
				shardBudgets = append(shardBudgets, [2]int{budget, reserved})
				mu.Unlock()
				return
			}
			computeComm = dep.ClientComm
			b = cm1.NewDamarisBackend(dep.Client)
		case "fpp":
			computeComm = comm
			b = cm1.NewFPPBackend(o.outDir, codec, comm.Rank())
		case "collective":
			computeComm = comm
			b = cm1.NewCollectiveBackend(o.outDir, comm)
		}

		sim, err := cm1.New(computeComm, params)
		if err != nil {
			panic(err)
		}
		rep, err := cm1.Run(sim, b, o.steps, o.outputEvery)
		if err != nil {
			panic(err)
		}
		if err := b.Close(); err != nil {
			panic(err)
		}
		mu.Lock()
		phaseTimes = append(phaseTimes, rep.WriteSeconds...)
		mu.Unlock()
	})
	if err != nil {
		return err
	}

	ps := stats.Summarize(phaseTimes)
	fmt.Printf("backend=%s ranks=%d nodes=%d steps=%d\n", o.backend, o.ranks, nodes, o.steps)
	fmt.Printf("client write phases: n=%d mean=%.2gs min=%.2gs max=%.2gs (spread %.2gs)\n",
		ps.N, ps.Mean, ps.Min, ps.Max, ps.Spread())
	if o.backend == "damaris" {
		ws := stats.Summarize(serverWrite)
		fmt.Printf("dedicated cores: %d flushes, write mean=%.2gs; spare total=%.2gs; %d bytes persisted\n",
			ws.N, ws.Mean, stats.Mean(serverSpare), bytesWritten)
		reportPipeline(pipeStats)
		reportShards(pipeStats, shardBudgets)
		reportSpill(pipeStats)
		reportControl(pipeStats, cfg.ControlMode)
		reportStore(pipeStats, sharedStore)
		reportAggregate(pipeStats)
		reportJitter(plane)
	}
	if o.traceOut != "" {
		if err := writeTrace(plane, o.traceOut); err != nil {
			return err
		}
	}
	if sharedStore != nil {
		fmt.Printf("output in backend %s\n", cfg.PersistBackend)
	} else {
		fmt.Printf("output in %s\n", o.outDir)
	}
	return nil
}

// reportJitter prints the per-stage lifecycle jitter over the retained
// spans. It goes through the same Plane.JitterReport the HTTP /jitter route
// serves, so a live scrape and this report always agree.
func reportJitter(plane *obs.Plane) {
	for _, j := range plane.JitterReport() {
		window := ""
		if j.Truncated {
			// The ring overwrote older spans: these percentiles describe
			// only the most recent n of the stage's total spans.
			window = fmt.Sprintf(" (ring kept last %d of %d spans)", j.Count, j.Total)
		}
		fmt.Printf("jitter[%s]: n=%d mean=%.2gs p50=%.2gs p95=%.2gs p99=%.2gs spread=%.2gs%s\n",
			j.Stage, j.Count, j.Mean, j.P50, j.P95, j.P99, j.Spread, window)
	}
}

// writeTrace dumps the retained lifecycle spans as JSONL for offline
// analysis with dsf-inspect -trace.
func writeTrace(plane *obs.Plane, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := plane.Tracer().WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	tr := plane.Tracer()
	fmt.Printf("trace: %d spans retained in %s (%d recorded, %d overwritten by the ring)\n",
		tr.Total()-tr.Dropped(), path, tr.Total(), tr.Dropped())
	return nil
}

// reportPipeline prints the write-behind pipeline's per-stage metrics,
// aggregated over all dedicated cores.
func reportPipeline(ps []core.PipelineStats) {
	if len(ps) == 0 {
		return
	}
	if ps[0].Workers == 0 {
		fmt.Printf("persistence: synchronous baseline (persist-workers=0)\n")
		reportEncode(ps)
		return
	}
	var enq, comp, fail int64
	var maxDepth int
	var depthMeans, latMeans, latMaxes, utils, batchMeans []float64
	for _, s := range ps {
		enq += s.Enqueued
		comp += s.Completed
		fail += s.Failures
		if s.MaxInFlight > maxDepth {
			maxDepth = s.MaxInFlight
		}
		depthMeans = append(depthMeans, s.Depth.Mean)
		latMeans = append(latMeans, s.FlushLatency.Mean)
		latMaxes = append(latMaxes, s.FlushLatency.Max)
		utils = append(utils, s.Utilization)
		batchMeans = append(batchMeans, s.BatchSize.Mean)
	}
	// Workers and Window are the *effective* sizes — wherever the control
	// plane left them, which under static control equals the configured
	// knobs — so a run is diagnosable from the report alone.
	fmt.Printf("pipeline: %d workers x window %d (queue %d) per core; %d iterations enqueued, %d durable, %d failed\n",
		ps[0].Workers, ps[0].Window, ps[0].QueueDepth, enq, comp, fail)
	fmt.Printf("pipeline: queue depth mean=%.2f max=%d; flush latency mean=%.2gs max=%.2gs\n",
		stats.Mean(depthMeans), maxDepth, stats.Mean(latMeans), stats.Max(latMaxes))
	fmt.Printf("pipeline: writer utilization mean=%.1f%%; batch size mean=%.2f\n",
		100*stats.Mean(utils), stats.Mean(batchMeans))
	reportEncode(ps)
}

// reportShards prints each dedicated core's event-loop shard activity and,
// when engaged, the node spare-core budget. Silent with a single classic
// loop everywhere and no budget — the pre-sharding report is unchanged then.
func reportShards(ps []core.PipelineStats, budgets [][2]int) {
	maxShards, maxBudget := 0, 0
	for _, s := range ps {
		if len(s.Shards) > maxShards {
			maxShards = len(s.Shards)
		}
	}
	for _, b := range budgets {
		if b[0] > maxBudget {
			maxBudget = b[0]
		}
	}
	if maxShards <= 1 && maxBudget == 0 {
		return
	}
	for i, s := range ps {
		n := len(s.Shards)
		var events, wakeups []int64
		var busy []string
		for _, sh := range s.Shards {
			events = append(events, sh.Events)
			wakeups = append(wakeups, sh.Wakeups)
			busy = append(busy, fmt.Sprintf("%.1f%%", 100*sh.BusyFraction))
		}
		fmt.Printf("shards[%d]: core %d: events=%v wakeups=%v busy=%v\n", n, i, events, wakeups, busy)
	}
	for i, b := range budgets {
		if b[0] == 0 {
			continue
		}
		fmt.Printf("shards[budget]: core %d: %d spare cores (%d reserved for shard loops; writers+encode share the rest)\n",
			i, b[0], b[1])
	}
}

// reportSpill prints the degraded-mode scratch-spill activity, summed over
// the dedicated cores. Silent when no spill directory is configured.
func reportSpill(ps []core.PipelineStats) {
	var spilled, recovered, replayed, bytes, failures int64
	var stranded int
	enabled := false
	for _, s := range ps {
		sp := s.Spill
		if !sp.Enabled {
			continue
		}
		enabled = true
		spilled += sp.Spilled
		recovered += sp.Recovered
		replayed += sp.Replayed
		bytes += sp.Bytes
		failures += sp.Failures
		stranded += sp.Stranded
	}
	if !enabled {
		return
	}
	fmt.Printf("spill: %d iterations spilled (%d bytes), %d recovered from a previous run, %d replayed through the store; %d replay failures\n",
		spilled, bytes, recovered, replayed, failures)
	if stranded > 0 {
		fmt.Printf("spill: %d iterations stranded on scratch disk (recovered on next start)\n", stranded)
	}
}

// reportControl prints the adaptive control plane's activity and the
// effective (post-tune) sizes per dedicated core. Static mode prints a
// single marker line so every report names its control mode.
func reportControl(ps []core.PipelineStats, mode string) {
	if mode != "auto" {
		fmt.Printf("control[static]: configured sizes are final\n")
		return
	}
	var decisions, resizes int64
	for _, s := range ps {
		decisions += s.Control.Decisions
		resizes += s.Control.Resizes
	}
	var degraded int64
	for _, s := range ps {
		degraded += s.Control.DegradedDecisions
	}
	fmt.Printf("control[auto]: %d decisions, %d resizes across %d dedicated cores\n",
		decisions, resizes, len(ps))
	if degraded > 0 {
		fmt.Printf("control[auto]: %d decisions taken in degraded mode (spill backlog pending; window growth vetoed)\n",
			degraded)
	}
	for i, s := range ps {
		c := s.Control
		fmt.Printf("control[auto]: core %d effective writers=%d window=%d encode=%d "+
			"(bounds %d/%d/%d, ratio %.2f, steady %d)\n",
			i, c.Sizes.Writers, c.Sizes.Window, c.Sizes.Encode,
			c.Limits.MaxWriters, c.Limits.MaxWindow, c.Limits.MaxEncode, c.Ratio, c.Steady)
	}
}

// reportStore prints the storage-backend metrics. With a shared backend one
// snapshot covers the whole run; otherwise the per-core backends (each
// server's PipelineStats.Store) are aggregated. Silent when nothing was
// stored.
func reportStore(ps []core.PipelineStats, shared store.Backend) {
	var agg []store.Stats
	if shared != nil {
		agg = []store.Stats{shared.Stats()}
	} else {
		for _, s := range ps {
			if s.Store.Scheme != "" {
				agg = append(agg, s.Store)
			}
		}
	}
	var puts, putBytes, dedupe, dedupeBytes, retries, failures, commits, maxFlight int64
	var backoffs, putTimeouts, hedges, hedgeWins int64
	var backoffSec float64
	var putLatMeans []float64
	scheme := ""
	for _, s := range agg {
		scheme = s.Scheme
		puts += s.Puts
		putBytes += s.PutBytes
		dedupe += s.DedupeHits
		dedupeBytes += s.DedupeBytes
		retries += s.Retries
		failures += s.Failures
		commits += s.Commits
		backoffs += s.Backoffs
		backoffSec += s.BackoffSeconds
		putTimeouts += s.PutTimeouts
		hedges += s.Hedges
		hedgeWins += s.HedgeWins
		if s.MaxPartsInFlight > maxFlight {
			maxFlight = s.MaxPartsInFlight
		}
		if s.PutLatency.N > 0 {
			putLatMeans = append(putLatMeans, s.PutLatency.Mean)
		}
	}
	if puts == 0 && commits == 0 {
		return
	}
	fmt.Printf("store[%s]: %d puts (%d bytes), %d commits; put latency mean=%.2gs\n",
		scheme, puts, putBytes, commits, stats.Mean(putLatMeans))
	if dedupe > 0 || maxFlight > 0 || retries > 0 || failures > 0 {
		rate := 0.0
		if puts+dedupe > 0 {
			rate = float64(dedupe) / float64(puts+dedupe)
		}
		fmt.Printf("store[%s]: dedupe %d hits (%d bytes, %.0f%% of part uploads); %d retries, %d failures; max %d parts in flight\n",
			scheme, dedupe, dedupeBytes, 100*rate, retries, failures, maxFlight)
	}
	if backoffs > 0 || putTimeouts > 0 || hedges > 0 {
		fmt.Printf("store[%s]: %d backoff waits (%.2gs total), %d put timeouts; %d hedged puts, %d hedge wins\n",
			scheme, backoffs, backoffSec, putTimeouts, hedges, hedgeWins)
	}
}

// reportAggregate prints the aggregation tier's metrics, summed over the
// node leaders (siblings report zero, so every node counts once). Silent
// when aggregation is off.
func reportAggregate(ps []core.PipelineStats) {
	var epochs, empty, contribs, chunks, bytes, reelect, forwarded int64
	var ringMax int
	mode := ""
	leaders := 0
	for _, s := range ps {
		if s.Aggregate.Members == 0 {
			continue
		}
		leaders++
		mode = s.Aggregate.Mode
		epochs += s.Aggregate.Epochs
		empty += s.Aggregate.EmptyEpochs
		contribs += s.Aggregate.Contributions
		chunks += s.Aggregate.MergedChunks
		bytes += s.Aggregate.MergedBytes
		reelect += s.Aggregate.Reelections
		if s.Aggregate.RingMax > ringMax {
			ringMax = s.Aggregate.RingMax
		}
		forwarded += s.AggregateForwarded
	}
	if leaders == 0 {
		return
	}
	fmt.Printf("aggregate[%s]: %d node leaders; %d merged epochs (%d chunks, %d bytes) from %d contributions; ring max %d; %d re-elections\n",
		mode, leaders, epochs, chunks, bytes, contribs, ringMax, reelect)
	if empty > 0 {
		fmt.Printf("aggregate[%s]: %d empty epochs acked without an object\n", mode, empty)
	}
	for _, s := range ps {
		if s.AggregateGlobal.Members == 0 {
			continue
		}
		g := s.AggregateGlobal
		fmt.Printf("aggregate[node]: global tier merged %d epochs (%d chunks, %d bytes) from %d nodes; %d epochs forwarded over the interconnect\n",
			g.Epochs, g.MergedChunks, g.MergedBytes, g.Members, forwarded)
	}
}

// reportEncode prints the encode-stage metrics, aggregated over all
// dedicated cores; silent when no encode pool ran.
func reportEncode(ps []core.PipelineStats) {
	var chunks, raw, stored, maxFlight int64
	var planes transform.PlaneCounts
	var latMeans, utils []float64
	for _, s := range ps {
		if s.Encode.Workers == 0 {
			continue
		}
		chunks += s.Encode.Chunks
		raw += s.Encode.RawBytes
		stored += s.Encode.StoredBytes
		planes.Add(s.Encode.Planes)
		if s.Encode.MaxBytesInFlight > maxFlight {
			maxFlight = s.Encode.MaxBytesInFlight
		}
		latMeans = append(latMeans, s.Encode.Latency.Mean)
		utils = append(utils, s.Encode.Utilization)
	}
	if chunks == 0 {
		return
	}
	fmt.Printf("encode: %d workers per core; %d chunks, %d -> %d bytes; latency mean=%.2gs; "+
		"pool utilization mean=%.1f%%; max %d raw bytes in flight\n",
		ps[0].Encode.Workers, chunks, raw, stored,
		stats.Mean(latMeans), 100*stats.Mean(utils), maxFlight)
	if planes != (transform.PlaneCounts{}) {
		fmt.Printf("encode: shuffle+gzip byte planes: %d stored, %d fast pass, %d at the configured level\n",
			planes[transform.PlaneStored], planes[transform.PlaneFast], planes[transform.PlaneLevel])
	}
}
