// Command dsf-inspect lists, verifies and dumps DSF files written by the
// Damaris persistency layer or the baseline writers — from plain files or
// from any registered storage backend (read back through its manifest).
//
// Usage:
//
//	dsf-inspect file.dsf                      # list chunks and attributes
//	dsf-inspect -verify file.dsf              # checksum-verify every chunk
//	dsf-inspect -stats file.dsf               # per-chunk min/max/mean for float data
//	dsf-inspect -store obj:///data/objects    # list + inspect every committed object
//	dsf-inspect -store obj://dir -verify name # verify one object of a backend
//	dsf-inspect -store obj://dir -gc          # mark-and-sweep unreferenced parts
//	dsf-inspect -store obj://dir -gc -gc-dry-run  # report only
//	dsf-inspect -trace run.jsonl              # per-stage jitter summary of a lifecycle trace
//	dsf-inspect -trace -trace-format chrome run.jsonl > run.trace  # chrome://tracing
//	dsf-inspect -trace -trace-format epochs rank*.jsonl  # merge per-rank traces into per-epoch critical paths
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

func main() {
	var (
		verify = flag.Bool("verify", false, "verify every chunk's checksum and decodability")
		stat   = flag.Bool("stats", false, "print min/max/mean of floating-point chunks")
		st     = flag.String("store", "", "storage backend URL; arguments become object names (none = all committed objects)")
		gc     = flag.Bool("gc", false, "mark-and-sweep the backend: reclaim content-addressed parts no committed manifest references (requires -store)")
		gcDry  = flag.Bool("gc-dry-run", false, "with -gc, report what would be reclaimed without deleting")
		gcAge  = flag.Duration("gc-min-age", store.DefaultGCMinAge,
			"with -gc, minimum age of unreferenced data before it may be reclaimed; in-flight uploads younger than this are retry seeds, not garbage (0 reclaims immediately — only safe when no writer can be live)")
		trace    = flag.Bool("trace", false, "arguments are lifecycle-trace JSONL files (damaris-run -trace-out or GET /trace)")
		traceFmt = flag.String("trace-format", "summary", "with -trace: summary | chrome | jsonl | epochs (chrome and jsonl write to stdout; epochs merges all files into one per-epoch critical-path view)")
	)
	flag.Parse()
	if *st == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dsf-inspect [-verify] [-stats] file.dsf... | -store URL [-gc [-gc-dry-run]] [object...] | -trace [-trace-format f] run.jsonl...")
		os.Exit(2)
	}
	if *trace {
		exit := 0
		if *traceFmt == "epochs" {
			// The epochs view is cross-file by design: each per-rank trace
			// holds one rank's slice of every epoch, and only their merge
			// shows the fleet-wide critical path.
			if err := inspectTraceEpochs(flag.Args()); err != nil {
				fmt.Fprintf(os.Stderr, "dsf-inspect: %v\n", err)
				exit = 1
			}
			os.Exit(exit)
		}
		for _, path := range flag.Args() {
			if err := inspectTrace(path, *traceFmt); err != nil {
				fmt.Fprintf(os.Stderr, "dsf-inspect: %s: %v\n", path, err)
				exit = 1
			}
		}
		os.Exit(exit)
	}
	if *gc && *st == "" {
		fmt.Fprintln(os.Stderr, "dsf-inspect: -gc requires -store")
		os.Exit(2)
	}
	exit := 0
	if *st != "" {
		if *gc {
			if err := runGC(*st, *gcDry, *gcAge); err != nil {
				fmt.Fprintf(os.Stderr, "dsf-inspect: %s: %v\n", *st, err)
				exit = 1
			}
			os.Exit(exit)
		}
		if err := inspectStore(*st, flag.Args(), *verify, *stat); err != nil {
			fmt.Fprintf(os.Stderr, "dsf-inspect: %s: %v\n", *st, err)
			exit = 1
		}
		os.Exit(exit)
	}
	for _, path := range flag.Args() {
		if err := inspect(path, *verify, *stat); err != nil {
			fmt.Fprintf(os.Stderr, "dsf-inspect: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// runGC opens a backend and runs one mark-and-sweep pass over it.
func runGC(url string, dryRun bool, minAge time.Duration) error {
	window := fmt.Sprintf("within the %s grace window", minAge)
	if minAge <= 0 {
		// An operator's explicit 0 means "now"; the library's zero value
		// means "default grace window". Translate at the CLI boundary.
		minAge = -1
		window = "(no grace window applied)"
	}
	b, err := store.Open(url)
	if err != nil {
		return err
	}
	defer b.Close()
	col, ok := b.(store.Collector)
	if !ok {
		return fmt.Errorf("backend does not support garbage collection (only content-addressed stores accumulate unreferenced parts)")
	}
	rep, err := col.GC(store.GCOptions{DryRun: dryRun, MinAge: minAge})
	if err != nil {
		return err
	}
	verb := "reclaimed"
	if dryRun {
		verb = "would reclaim"
	}
	fmt.Printf("%s: marked %d manifests referencing %d parts\n", url, rep.Manifests, rep.LiveParts)
	fmt.Printf("%s: %s %d unreferenced parts (%d bytes) and %d stale temps; kept %d %s\n",
		url, verb, rep.ReclaimedBlobs, rep.ReclaimedBytes, rep.ReclaimedTemps, rep.KeptYoung, window)
	return nil
}

// inspectStore opens a storage backend and inspects the named objects (all
// committed objects when names is empty), resolving their bytes through the
// backend's manifests.
func inspectStore(url string, names []string, verify, stat bool) error {
	b, err := store.Open(url)
	if err != nil {
		return err
	}
	defer b.Close()
	if len(names) == 0 {
		objs, err := b.Objects()
		if err != nil {
			return err
		}
		for _, o := range objs {
			names = append(names, o.Name)
		}
		if len(names) == 0 {
			fmt.Printf("%s: no committed objects\n", url)
			return nil
		}
	}
	failed := 0
	for _, name := range names {
		if err := inspectObject(b, name, verify, stat); err != nil {
			fmt.Fprintf(os.Stderr, "dsf-inspect: %s: %v\n", name, err)
			failed++
		}
	}
	if failed > 0 {
		// Per-object errors already printed above; summarize rather than
		// have main repeat the first one verbatim.
		return fmt.Errorf("%d of %d objects failed", failed, len(names))
	}
	return nil
}

// inspectObject reads one committed object out of a backend as a DSF stream.
func inspectObject(b store.Backend, name string, verify, stat bool) error {
	m, err := b.Manifest(name)
	if err != nil {
		return err
	}
	or, err := b.Open(name)
	if err != nil {
		return err
	}
	defer or.Close()
	r, err := dsf.OpenReaderAt(or, or.Size())
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("%s: %d bytes in %d parts\n", name, m.Size, len(m.Parts))
	return inspectReader(r, verify, stat)
}

func inspect(path string, verify, stat bool) error {
	r, err := dsf.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("%s:\n", path)
	return inspectReader(r, verify, stat)
}

// inspectReader prints one opened DSF stream, wherever its bytes live.
func inspectReader(r *dsf.Reader, verify, stat bool) error {
	attrs := r.Attributes()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  attr %s = %q\n", k, attrs[k])
	}
	// Aggregated objects carry their fan-in provenance: the dedicated cores
	// whose data was merged in, or — in archives written before PR 25
	// removed the cross-node tier — the nodes.
	if v, ok := attrs["servers"]; ok {
		fmt.Printf("  contributing servers: %s\n", v)
	}
	if v, ok := attrs["nodes"]; ok {
		fmt.Printf("  contributing nodes: %s\n", v)
	}
	var raw, stored int64
	for i, m := range r.Chunks() {
		fmt.Printf("  chunk %d: %s it=%d src=%d %v codec=%v %d->%d bytes",
			i, m.Name, m.Iteration, m.Source, m.Layout, m.Codec, m.RawSize, m.Stored)
		raw += m.RawSize
		stored += m.Stored
		if stat && (m.Layout.Type() == layout.Float32 || m.Layout.Type() == layout.Float64) {
			data, err := r.ReadChunk(i)
			if err != nil {
				return err
			}
			mn, mx, mean := chunkStats(data, m.Layout.Type())
			fmt.Printf(" min=%.4g max=%.4g mean=%.4g", mn, mx, mean)
		}
		fmt.Println()
	}
	if stored > 0 && raw != stored {
		fmt.Printf("  total %d -> %d bytes (ratio %.0f%%)\n", raw, stored, 100*float64(raw)/float64(stored))
	}
	if verify {
		if err := r.Verify(); err != nil {
			return err
		}
		fmt.Println("  verify: ok")
	}
	return nil
}

func chunkStats(data []byte, t layout.Type) (mn, mx, mean float64) {
	var xs []float64
	if t == layout.Float32 {
		for _, x := range mpi.BytesToFloat32s(data) {
			xs = append(xs, float64(x))
		}
	} else {
		xs = mpi.BytesToFloat64s(data)
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	mn, mx = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
		sum += x
	}
	return mn, mx, sum / float64(len(xs))
}
