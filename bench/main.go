// Command bench is this repository's benchmark: six closed-loop workloads
// over the real core.Deploy path, twelve end-to-end metrics, and a traced
// run that attributes time to layers. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// driverLine is the last line of standard output: the summary the benchmark
// driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "seed for inputs, injected latencies and the reader's choices")
		seconds  = fs.Int("seconds", referenceSeconds, "measured seconds per workload run; iteration counts scale with it")
		name     = fs.String("workload", "", "run only this workload (default: all six)")
		trace    = fs.String("trace", "", "0 = end-to-end metrics only, 1 = per-layer metrics only, empty = both")
		out      = fs.String("out", "", "write the result envelope (JSON) to this file")
		traceOut = fs.String("trace-out", "", "write the traced run's spans (JSON lines) to this file")
		root     = fs.String("root", "", "directory for segment data (default: a fresh one under /dev/shm, removed at exit)")
		compare  = fs.Bool("compare", false, "compare two result envelopes: bench -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != "" && *trace != "0" && *trace != "1") || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	dir, device, err := dataRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *root == "" {
		defer os.RemoveAll(dir)
		// A run the caller gives up on must not leave its data in memory.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			os.RemoveAll(dir)
			os.Exit(130)
		}()
	}
	r := &runner{seed: *seed, seconds: *seconds, root: dir, log: stdout, reruns: 1}
	if *name == "" {
		r.reruns = 2
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		r.traceOut = bw
	}
	env, err := r.run(selected, *trace, device)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	line := report(stdout, env, *name != "")
	if *out != "" {
		b, err := json.MarshalIndent(env, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// run measures the selected workloads one after the other: the untraced
// segments (what the end-to-end numbers come from), then the traced segment
// right behind them, so the tracing overhead compares neighbours in time.
// With -trace 1 alone a single untraced segment still runs, as that base.
func (r *runner) run(selected []workload, trace, device string) (*envelope, error) {
	env := newEnvelope(r.seed, r.seconds, device)
	fmt.Fprintf(r.log, "# loop: closed (2 clients, flow window; reader thinks %v); seed %d, %d s per workload, data on %s\n",
		readThink, r.seed, r.seconds, device)
	var probes map[string]float64
	if trace != "0" {
		var err error
		if probes, err = runProbes(r.seed, filepath.Join(r.root, "probes")); err != nil {
			return nil, err
		}
	}
	n := segments
	if trace == "1" {
		n = 1
	}
	var digests []string
	for _, w := range selected {
		base, err := r.endToEnd(w, n)
		if err != nil {
			return nil, err
		}
		digests = append(digests, base.InputSHA256)
		if trace != "1" {
			env.Workloads = append(env.Workloads, base)
		}
		if trace == "0" {
			continue
		}
		lr, err := r.layers(w, base.segs, probes)
		if err != nil {
			return nil, err
		}
		if trace == "1" {
			// The base segment is reported nowhere else; its operations
			// still count.
			lr.Attempted += base.Attempted
			lr.Failed += base.Failed
			lr.Failures = append(lr.Failures, base.Failures...)
		}
		env.Layers = append(env.Layers, lr)
	}
	env.sealInputs(digests)
	return env, nil
}

// report prints every metric by name with its unit and builds the driver
// line, which carries the gated end-to-end metrics and the per-layer ones.
// With a single workload its keys are the bare metric names; with several
// they are prefixed by the workload.
func report(w io.Writer, env *envelope, single bool) driverLine {
	line := driverLine{Correct: true, Metrics: make(map[string]driverValue)}
	key := func(workload, metric string) string {
		if single {
			return metric
		}
		return workload + "/" + metric
	}
	count := func(attempted, failed int, failures []string, what string) {
		line.Attempted += attempted
		line.Failed += failed
		fmt.Fprintf(w, "%-18s failed_ops/attempted_ops = %d/%d\n", what, failed, attempted)
		for _, f := range failures {
			fmt.Fprintf(w, "%-18s FAILED: %s\n", what, f)
		}
	}
	for _, res := range env.Workloads {
		for _, m := range res.Metrics {
			flag := ""
			if !m.Gated {
				flag = "  ungated"
			}
			if m.Disturbed {
				flag += fmt.Sprintf("  disturbed (steal %.1f %%)", 100*res.HostStealShare)
			}
			fmt.Fprintf(w, "%-18s %-28s %12.6g %-6s n=%-5d spread=[%.6g, %.6g]%s\n",
				res.Name, m.Name, m.Value, m.Unit, m.N, m.Spread[0], m.Spread[1], flag)
			if d, _ := findMetric(m.Name); d.Declared {
				line.Metrics[key(res.Name, m.Name)] = driverValue{m.Value, m.Unit}
			}
		}
		count(res.Attempted, res.Failed, res.Failures, res.Name)
	}
	for _, lr := range env.Layers {
		// The driver wants every per-layer name on every workload; a layer
		// the workload never enters (no reader, no aggregation) reads 0 on
		// its line and is left out everywhere else.
		for _, d := range perLayer {
			line.Metrics[key(lr.Workload, d.Name)] = driverValue{0, d.Unit}
		}
		for _, m := range lr.Metrics {
			fmt.Fprintf(w, "%-18s %-44s %12.6g %s\n", lr.Workload, m.Name, m.Value, m.Unit)
			line.Metrics[key(lr.Workload, m.Name)] = driverValue{m.Value, m.Unit}
		}
		count(lr.Attempted, lr.Failed, lr.Failures, lr.Workload+" (traced)")
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}
