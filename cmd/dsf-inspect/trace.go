package main

import (
	"fmt"
	"os"
	"sort"

	"damaris/internal/obs"
)

// inspectTrace reads a lifecycle-trace JSONL file (damaris-run -trace-out or
// a saved GET /trace body) and re-renders it: a per-stage jitter summary
// (default), the Chrome trace-event conversion for chrome://tracing, or the
// normalized JSONL itself.
func inspectTrace(path, format string) error {
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
		return obs.WriteSpansChrome(os.Stdout, spans)
	case "jsonl":
		return obs.WriteSpansJSONL(os.Stdout, spans)
	case "summary":
		printTraceSummary(path, spans)
		return nil
	default:
		return fmt.Errorf("unknown -trace-format %q (want summary | chrome | jsonl | epochs)", format)
	}
}

// inspectTraceEpochs merges the spans of every given per-rank trace file
// and prints the per-epoch critical-path reconstruction — the offline twin
// of the live /epochs route, for fleets whose ranks each dumped their own
// -trace-out file.
func inspectTraceEpochs(paths []string) error {
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
	fmt.Printf("%d spans across %d files, %d epochs\n", len(spans), len(paths), len(reports))
	for _, r := range reports {
		fmt.Printf("epoch %-6d spans=%-5d wall=%-9.3gs dominant=%-8s (%.3gs total) slowest-origin=%d (%.3gs)",
			r.Epoch, r.Spans, r.WallSeconds, r.DominantStage, r.DominantSeconds,
			r.SlowestOrigin, r.SlowestSeconds)
		if r.Err {
			fmt.Print(" ERR")
		}
		if len(r.Stragglers) > 0 {
			fmt.Printf(" stragglers=%v", r.Stragglers)
		}
		fmt.Println()
		for _, st := range r.Stages {
			fmt.Printf("  %-8s n=%-5d total=%-9.3gs max=%-9.3gs slowest-origin=%d\n",
				st.Stage, st.Count, st.TotalSeconds, st.MaxSeconds, st.SlowestOrigin)
		}
	}
	return nil
}

// printTraceSummary prints per-stage descriptive statistics over the file's
// spans — the same obs.SummarizeStages the live /jitter route applies to the
// ring, so an archived trace reproduces the run's jitter lines.
func printTraceSummary(path string, spans []obs.Span) {
	fmt.Printf("%s: %d spans\n", path, len(spans))
	servers := map[int]bool{}
	var errs int
	for _, sp := range spans {
		servers[sp.Server] = true
		if sp.Err {
			errs++
		}
	}
	fmt.Printf("  %d recording servers; %d error spans\n", len(servers), errs)
	for st, ss := range obs.SummarizeStages(spans) {
		if s := ss.Durations; s.N > 0 {
			fmt.Printf("  %-7s n=%-6d mean=%-9.3gs p50=%-9.3gs p95=%-9.3gs p99=%-9.3gs spread=%-9.3gs bytes=%d\n",
				obs.Stage(st), s.N, s.Mean, s.Median, s.P95, s.P99, s.Spread(), ss.Bytes)
		}
	}
}
