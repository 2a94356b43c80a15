// Aggregation-aware throughput curves over the paper's three platforms.
// External test package so it can drive the iostrat simulator (which
// imports cluster) without a cycle.
package cluster_test

import (
	"testing"

	"damaris/internal/cluster"
	"damaris/internal/iostrat"
	"damaris/internal/stats"
)

// aggCurve returns the mean apparent throughput over a few phases for one
// platform, scale and aggregation mode.
func aggCurve(t *testing.T, plat cluster.Platform, cores int, mode string) float64 {
	t.Helper()
	rs, err := iostrat.Phases("damaris", plat, iostrat.Options{
		Cores:            cores,
		Seed:             42,
		DedicatedPerNode: 2,
		AggregateMode:    mode,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Mean(iostrat.AggregateBps(rs))
}

// Every platform produces finite, deterministic aggregation curves at two
// scales, and the AggregatorIngest knob resolves on all of them. The
// platforms differ (NodeStreamCap, create costs, pool shapes), so the test
// pins structure — curves exist, are reproducible, and respond to the mode
// switch — rather than a single cross-platform ordering.
func TestAggregationThroughputCurves(t *testing.T) {
	for _, plat := range []cluster.Platform{cluster.Kraken(), cluster.Grid5000(), cluster.BluePrint()} {
		if plat.AggregatorIngest() <= 0 {
			t.Errorf("%s: no aggregator ingest bandwidth", plat.Name)
		}
		for _, scale := range []int{8, 24} {
			cores := scale * plat.CoresPerNode
			if cores > plat.MaxCores {
				continue
			}
			var curve []float64
			for _, mode := range []string{"off", "core", "node"} {
				bps := aggCurve(t, plat, cores, mode)
				if bps <= 0 {
					t.Errorf("%s/%d/%s: throughput %g", plat.Name, cores, mode, bps)
				}
				if again := aggCurve(t, plat, cores, mode); again != bps {
					t.Errorf("%s/%d/%s: not deterministic (%g vs %g)", plat.Name, cores, mode, bps, again)
				}
				curve = append(curve, bps)
			}
			// The mode switch must actually change the simulated topology:
			// identical throughput across all three tiers would mean the
			// knob is dead.
			if curve[0] == curve[1] && curve[1] == curve[2] {
				t.Errorf("%s/%d: curves identical across modes: %v", plat.Name, cores, curve)
			}
		}
	}
}

// On Kraken — per-stream capped, create-cost dominated — merging two
// dedicated cores' streams into one per node must not lose apparent
// throughput: the merged writer moves twice the bytes but saves a create
// and halves pool contention.
func TestKrakenCoreAggregationHoldsThroughput(t *testing.T) {
	plat := cluster.Kraken()
	cores := 64 * plat.CoresPerNode
	off := aggCurve(t, plat, cores, "off")
	core := aggCurve(t, plat, cores, "core")
	// Allow modest slack: one big stream is still NodeStreamCap-bound.
	if core < off/2 {
		t.Errorf("core aggregation collapsed throughput: off=%.3g core=%.3g", off, core)
	}
}
