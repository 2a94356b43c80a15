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
	"io"
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

	if err := run(cfg, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "damaris-run:", err)
		os.Exit(1)
	}
}

// run executes one world and writes its report to out. cfg carries the knobs
// as the flags left them; run adds what the mini-app declares (buffer,
// layouts, variables, events) and validates the whole before any rank starts.
func run(cfg *config.Config, o options, out io.Writer) error {
	if o.ranks%o.coresPerNode != 0 {
		return fmt.Errorf("ranks %d not a multiple of cores-per-node %d", o.ranks, o.coresPerNode)
	}
	if !slices.Contains([]string{"damaris", "fpp", "collective"}, o.backend) {
		return fmt.Errorf("unknown -backend %q (want damaris, fpp or collective)", o.backend)
	}
	nodes := o.ranks / o.coresPerNode

	// One telemetry plane for the whole in-process world: every dedicated
	// core records spans and registers collectors against it, so a single
	// scrape (or the end-of-run report, which is one) covers the run. The
	// fleet federator merges rank-local registries — each dedicated core
	// registers its collectors on a private registry too as it deploys — so
	// /fleet/metrics shows the same figures rank by rank, exactly as a
	// multi-process fleet would expose them.
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
		fmt.Fprintf(out, "telemetry: http://%s/metrics (also /metrics.json /fleet/metrics /epochs /trace /jitter /readyz /debug/pprof)\n", ln.Addr())
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
	fmt.Fprintf(out, "backend=%s ranks=%d nodes=%d steps=%d\n", o.backend, o.ranks, nodes, o.steps)
	fmt.Fprintf(out, "client write phases: n=%d mean=%.2gs min=%.2gs max=%.2gs (spread %.2gs)\n",
		ps.N, ps.Mean, ps.Min, ps.Max, ps.Spread())
	if o.backend == "damaris" {
		reportJitter(out, plane)
	}
	if o.traceOut != "" {
		if err := writeTrace(out, plane, o.traceOut); err != nil {
			return err
		}
	}
	if sharedStore != nil {
		fmt.Fprintf(out, "output in backend %s\n", cfg.PersistBackend)
	} else {
		fmt.Fprintf(out, "output in %s\n", o.outDir)
	}
	if o.backend != "damaris" {
		return nil
	}
	// The dedicated cores' figures — pipeline, shards, spill, store,
	// aggregation, encode, each core's busy/spare split — are the plane's
	// registry, in the bytes /metrics serves.
	return obs.WriteSamples(out, plane.Registry().Gather())
}

// reportJitter prints the per-stage lifecycle jitter over the retained
// spans. It goes through the same Plane.JitterReport the HTTP /jitter route
// serves, so a live scrape and this report always agree.
func reportJitter(out io.Writer, plane *obs.Plane) {
	for _, j := range plane.JitterReport() {
		window := ""
		if j.Truncated {
			// The ring overwrote older spans: these percentiles describe
			// only the most recent n of the stage's total spans.
			window = fmt.Sprintf(" (ring kept last %d of %d spans)", j.Count, j.Total)
		}
		fmt.Fprintf(out, "jitter[%s]: n=%d mean=%.2gs p50=%.2gs p95=%.2gs p99=%.2gs spread=%.2gs%s\n",
			j.Stage, j.Count, j.Mean, j.P50, j.P95, j.P99, j.Spread, window)
	}
}

// writeTrace dumps the retained lifecycle spans as JSONL for offline
// analysis with dsf-inspect -trace.
func writeTrace(out io.Writer, plane *obs.Plane, path string) error {
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
	fmt.Fprintf(out, "trace: %d spans retained in %s (%d recorded, %d overwritten by the ring)\n",
		tr.Total()-tr.Dropped(), path, tr.Total(), tr.Dropped())
	return nil
}
