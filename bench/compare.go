package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric on one workload. worse is the share of the old
// median by which the new one is worse (negative = better). A difference
// counts only when it exceeds the bound (and the metric's absolute floor) and
// the two runs' segment ranges do not overlap; a disturbed side, or overlap
// with a difference beyond the bound, leaves it unresolved.
func verdict(old, cur metric, def metricDef) (v string, worse float64) {
	if old.Value == 0 {
		return "unresolved", 0
	}
	worse = (cur.Value - old.Value) / old.Value
	if !def.Lower {
		worse = -worse
	}
	if math.Abs(worse) <= def.Bound || math.Abs(cur.Value-old.Value) <= def.Floor {
		return "unchanged", worse
	}
	overlap := old.Spread[0] <= cur.Spread[1] && cur.Spread[0] <= old.Spread[1]
	switch {
	case old.Disturbed || cur.Disturbed || overlap:
		return "unresolved", worse
	case worse > 0:
		return "regression", worse
	default:
		return "improved", worse
	}
}

// compareFiles prints one row per workload x end-to-end metric and returns 1
// on a regression of a gated metric, on a gated metric or a workload the new
// file lacks, or on a higher share of failed operations. Bounds are the
// metric table's: the issue's, which BENCHMARK.json declares capped at 25 %
// (the smoke test keeps the two in step).
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var old, cur envelope
	err := readJSON(oldPath, &old)
	if err == nil {
		err = readJSON(newPath, &cur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	curBy := make(map[string]*workloadResult)
	for _, w := range cur.Workloads {
		curBy[w.Name] = w
	}
	status := 0
	fmt.Fprintf(stdout, "%-18s %-28s %14s %14s %-6s %9s %7s  %s\n",
		"workload", "metric", "old (median)", "new (median)", "unit", "worse by", "bound", "verdict")
	for _, ow := range old.Workloads {
		nw, ok := curBy[ow.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s missing from %s\n", ow.Name, newPath)
			status = 1
			continue
		}
		delete(curBy, ow.Name)
		newBy := make(map[string]metric)
		for _, m := range nw.Metrics {
			newBy[m.Name] = m
		}
		for _, om := range ow.Metrics {
			nm, ok := newBy[om.Name]
			delete(newBy, om.Name)
			if !ok {
				// A dropped or renamed metric must not pass as a 100 % gain.
				fmt.Fprintf(stdout, "%-18s %-28s missing from %s\n", ow.Name, om.Name, newPath)
				if om.Gated {
					status = 1
				}
				continue
			}
			def, _ := findMetric(om.Name)
			v, worse := verdict(om, nm, def)
			switch {
			case !om.Gated:
				// Wall-clock metrics drift by more than their bound on a
				// shared host; a verdict here is a reason to run pairs,
				// not a failure.
				v += " (ungated)"
			case v == "regression":
				status = 1
			}
			// Every ratio with its base: the share is of the old median.
			fmt.Fprintf(stdout, "%-18s %-28s %14.6g %14.6g %-6s %+8.1f%% %6.1f%%  %s  (old [%.6g, %.6g] new [%.6g, %.6g], share of old %.6g)\n",
				ow.Name, om.Name, om.Value, nm.Value, om.Unit, 100*worse, 100*def.Bound, v,
				om.Spread[0], om.Spread[1], nm.Spread[0], nm.Spread[1], om.Value)
		}
		for _, nm := range nw.Metrics {
			if _, ok := newBy[nm.Name]; ok {
				fmt.Fprintf(stdout, "%-18s %-28s only in %s\n", ow.Name, nm.Name, newPath)
			}
		}
		oldShare := ratio(float64(ow.Failed), float64(ow.Attempted))
		newShare := ratio(float64(nw.Failed), float64(nw.Attempted))
		v := "unchanged"
		if newShare > oldShare {
			v, status = "regression", 1
		}
		fmt.Fprintf(stdout, "%-18s %-28s %9d/%-6d %9d/%-6d %s\n", ow.Name, "failed_ops/attempted_ops",
			ow.Failed, ow.Attempted, nw.Failed, nw.Attempted, v)
	}
	for _, nw := range cur.Workloads {
		if _, ok := curBy[nw.Name]; ok {
			fmt.Fprintf(stdout, "%-18s only in %s\n", nw.Name, newPath)
		}
	}
	return status
}
