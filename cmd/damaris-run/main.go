// Command damaris-run executes the real middleware pipeline: the CM1-like
// mini-app on an in-process MPI world with one dedicated I/O core per node,
// writing DSF files through Damaris — or through the file-per-process /
// collective baselines for comparison. Every strategy writes through the
// one storage backend -persist-backend names, file://<-out> by default.
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
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/obs"
	"damaris/internal/stats"
)

// options are the flags that describe the run itself; every knob of the
// middleware is a flag config.BindFlags declares from the same table that
// reads the XML.
type options struct {
	ranks, coresPerNode, steps, outputEvery, traceRing int
	outDir, backend, metricsAddr, traceOut             string
	bufMB                                              int64
}

// The telemetry listener gives a client this long to send its request
// headers and closes an idle keep-alive connection after idleTimeout, so a
// client that trickles its headers cannot hold a connection open forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var o options
	flag.IntVar(&o.ranks, "ranks", 12, "total ranks (cores) in the world")
	flag.IntVar(&o.coresPerNode, "cores-per-node", 4, "SMP node width")
	flag.IntVar(&o.steps, "steps", 20, "simulation timesteps")
	flag.IntVar(&o.outputEvery, "output-every", 5, "write phase every K steps")
	flag.StringVar(&o.outDir, "out", "damaris-out", "output directory: the file:// backend when -persist-backend is empty")
	flag.StringVar(&o.backend, "backend", "damaris", "damaris | fpp | collective")
	flag.Int64Var(&o.bufMB, "buffer-mb", 64, "per-node shared buffer (MiB)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live telemetry over HTTP on this address (/metrics Prometheus text, /epochs, /trace JSONL, /readyz, /debug/pprof); empty disables")
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
// as the flags left them; run names the -out directory as the backend when
// none is set, and cm1.RunWorld adds what the mini-app declares and
// validates the whole before any rank starts, whatever the strategy.
func run(cfg *config.Config, o options, out io.Writer) error {
	if !slices.Contains(cm1.Strategies, o.backend) {
		return fmt.Errorf("unknown -backend %q (want damaris, fpp or collective)", o.backend)
	}
	if cfg.PersistBackend == "" {
		cfg.PersistBackend = "file://" + o.outDir
	}
	cfg.BufferSize = o.bufMB << 20

	// One telemetry plane for the whole in-process world: every dedicated
	// core records spans and registers its collectors once against it,
	// under its own server label, so a single scrape (or the end-of-run
	// report, which is one) covers the run.
	plane := obs.NewPlane(o.traceRing)
	if o.metricsAddr != "" {
		ln, lerr := net.Listen("tcp", o.metricsAddr)
		if lerr != nil {
			return fmt.Errorf("metrics listener: %w", lerr)
		}
		srv := &http.Server{
			Handler:           plane.Handler(),
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: http://%s/metrics (also /epochs /trace /readyz /debug/pprof)\n", ln.Addr())
	}

	res, err := cm1.RunWorld(cm1.WorldSpec{Strategy: o.backend, Ranks: o.ranks, CoresPerNode: o.coresPerNode,
		Steps: o.steps, OutputEvery: o.outputEvery, Config: cfg, Obs: plane})
	if err != nil {
		return err
	}

	var phaseTimes []float64
	for _, ph := range res.Phases {
		for _, d := range ph {
			phaseTimes = append(phaseTimes, d.Seconds())
		}
	}
	ps := stats.Summarize(phaseTimes)
	fmt.Fprintf(out, "backend=%s ranks=%d nodes=%d steps=%d\n", o.backend, o.ranks, o.ranks/o.coresPerNode, o.steps)
	fmt.Fprintf(out, "client write phases: n=%d mean=%.2gs min=%.2gs max=%.2gs (spread %.2gs)\n",
		ps.N, ps.Mean, ps.Min, ps.Max, ps.Spread())
	if o.backend == "damaris" {
		fmt.Fprintf(out, "blocked write phases: %d of %d\n", res.Blocked, ps.N)
	}
	if o.traceOut != "" {
		if err := writeTrace(out, plane, o.traceOut); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "output in %s\n", cfg.PersistBackend)
	if o.backend != "damaris" {
		return nil
	}
	// The dedicated cores' figures — pipeline, shards, spill, store,
	// aggregation, encode, each core's busy/spare split, its clients' waits —
	// are the plane's registry, in the bytes /metrics serves.
	return obs.WriteSamples(out, plane.Registry().Gather())
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
