package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"damaris/internal/obs"
)

// inspectTrace reads a lifecycle-trace JSONL file (damaris-run -trace-out or
// a saved GET /trace body) and re-renders it to w: a per-stage summary with
// exact percentiles (default), the Chrome trace-event conversion for
// chrome://tracing, or the normalized JSONL itself.
func inspectTrace(w io.Writer, path, format string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpansJSONL(f)
	if err != nil {
		return err
	}
	switch format {
	case "chrome":
		return obs.WriteSpansChrome(w, spans)
	case "jsonl":
		return obs.WriteSpansJSONL(w, spans)
	case "summary":
		printTraceSummary(w, path, spans)
		return nil
	default:
		return fmt.Errorf("unknown -trace-format %q (want summary | chrome | jsonl | epochs)", format)
	}
}

// inspectTraceEpochs merges the spans of every given per-rank trace file
// and prints the per-epoch critical-path reconstruction to w — the offline
// twin of the live /epochs route, for fleets whose ranks each dumped their
// own -trace-out file.
func inspectTraceEpochs(w io.Writer, paths []string) error {
	var spans []obs.Span
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ss, err := obs.ReadSpansJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, ss...)
	}
	// Same deterministic order Tracer.Snapshot produces, so the offline
	// analysis of N files equals the live analysis of one merged ring.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	reports := obs.AnalyzeEpochs(spans)
	fmt.Fprintf(w, "%d spans across %d files, %d epochs\n", len(spans), len(paths), len(reports))
	for _, r := range reports {
		fmt.Fprintf(w, "epoch %-6d spans=%-5d wall=%-9.3gs dominant=%-8s (%.3gs total) slowest-origin=%d (%.3gs)",
			r.Epoch, r.Spans, r.WallSeconds, r.DominantStage, r.DominantSeconds,
			r.SlowestOrigin, r.SlowestSeconds)
		if r.Err {
			fmt.Fprint(w, " ERR")
		}
		if len(r.Stragglers) > 0 {
			fmt.Fprintf(w, " stragglers=%v", r.Stragglers)
		}
		fmt.Fprintln(w)
		for _, st := range r.Stages {
			fmt.Fprintf(w, "  %-8s n=%-5d total=%-9.3gs max=%-9.3gs slowest-origin=%d\n",
				st.Stage, st.Count, st.TotalSeconds, st.MaxSeconds, st.SlowestOrigin)
		}
	}
	return nil
}

// printTraceSummary prints per-stage descriptive statistics over the file's
// spans to w: obs.SummarizeStages's exact percentiles and Spread, beside
// which damaris_stage_seconds on /metrics holds the same stages' bucketed
// distributions over the whole run.
func printTraceSummary(w io.Writer, path string, spans []obs.Span) {
	fmt.Fprintf(w, "%s: %d spans\n", path, len(spans))
	servers := map[int]bool{}
	var errs int
	for _, sp := range spans {
		servers[sp.Server] = true
		if sp.Err {
			errs++
		}
	}
	fmt.Fprintf(w, "  %d recording servers; %d error spans\n", len(servers), errs)
	for st, ss := range obs.SummarizeStages(spans) {
		if s := ss.Durations; s.N > 0 {
			fmt.Fprintf(w, "  %-7s n=%-6d mean=%-9.3gs p50=%-9.3gs p95=%-9.3gs p99=%-9.3gs spread=%-9.3gs bytes=%d\n",
				obs.Stage(st), s.N, s.Mean, s.Median, s.P95, s.P99, s.Spread(), ss.Bytes)
		}
	}
}
