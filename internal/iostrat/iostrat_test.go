package iostrat

import (
	"math"
	"slices"
	"testing"

	"damaris/internal/cluster"
	"damaris/internal/stats"
)

func opts(cores int) Options {
	return Options{Cores: cores, Seed: 42}
}

func TestOptionsValidation(t *testing.T) {
	plat := cluster.Kraken()
	if _, err := SimulateFPP(plat, opts(7)); err == nil {
		t.Error("non-multiple core count should fail")
	}
	if _, err := SimulateFPP(plat, opts(0)); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := SimulateFPP(plat, opts(plat.MaxCores+plat.CoresPerNode)); err == nil {
		t.Error("exceeding platform max should fail")
	}
	if _, err := SimulateDamaris(plat, Options{Cores: 24, Seed: 1, DedicatedPerNode: 12}); err == nil {
		t.Error("all-dedicated should fail")
	}
	if _, err := Simulate("carrier-pigeon", plat, opts(576)); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := Phases("fpp", plat, opts(576), 0); err == nil {
		t.Error("zero phases should fail")
	}
}

func TestDeterminism(t *testing.T) {
	plat := cluster.Kraken()
	for _, strat := range []string{"fpp", "collective", "damaris"} {
		a, err := Simulate(strat, plat, Options{Cores: 576, Seed: 7, Interference: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(strat, plat, Options{Cores: 576, Seed: 7, Interference: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.ClientSeconds != b.ClientSeconds || a.AggregateBps != b.AggregateBps {
			t.Errorf("%s: same seed must reproduce exactly", strat)
		}
		c, err := Simulate(strat, plat, Options{Cores: 576, Seed: 8, Interference: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.ClientSeconds == c.ClientSeconds {
			t.Errorf("%s: different seeds should differ", strat)
		}
	}
}

func TestFPPShape(t *testing.T) {
	plat := cluster.Kraken()
	r, err := SimulateFPP(plat, opts(576))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerProcessSeconds) != 576 {
		t.Errorf("per-process samples = %d", len(r.PerProcessSeconds))
	}
	// Phase = max over processes.
	if m := stats.Max(r.PerProcessSeconds); m > r.ClientSeconds+1e-9 {
		t.Errorf("client phase %g below slowest process %g", r.ClientSeconds, m)
	}
	// Within-phase straggling: slowest well above fastest (paper: <1 s
	// vs >25 s on Grid'5000).
	fast := stats.Min(r.PerProcessSeconds)
	slow := stats.Max(r.PerProcessSeconds)
	if slow < 2*fast {
		t.Errorf("expected straggling: fastest %g, slowest %g", fast, slow)
	}
}

func TestFPPScalesWorseThanDamaris(t *testing.T) {
	plat := cluster.Kraken()
	for _, cores := range []int{576, 2304, 9216} {
		fpp, err := SimulateFPP(plat, opts(cores))
		if err != nil {
			t.Fatal(err)
		}
		dam, err := SimulateDamaris(plat, opts(cores))
		if err != nil {
			t.Fatal(err)
		}
		// The headline: Damaris' client-visible write phase is orders of
		// magnitude below file-per-process, and scale-independent.
		if dam.ClientSeconds > fpp.ClientSeconds/10 {
			t.Errorf("@%d: damaris %gs not ≪ fpp %gs", cores, dam.ClientSeconds, fpp.ClientSeconds)
		}
		if dam.ClientSeconds > 1 {
			t.Errorf("@%d: damaris client phase %gs should be sub-second", cores, dam.ClientSeconds)
		}
	}
}

func TestDamarisClientPhaseScaleIndependent(t *testing.T) {
	plat := cluster.Kraken()
	small, _ := SimulateDamaris(plat, opts(576))
	large, _ := SimulateDamaris(plat, opts(9216))
	ratio := large.ClientSeconds / small.ClientSeconds
	if ratio > 1.5 || ratio < 0.67 {
		t.Errorf("client phase changed with scale: %g vs %g", small.ClientSeconds, large.ClientSeconds)
	}
}

func TestCollectiveSlowestAtScale(t *testing.T) {
	plat := cluster.Kraken()
	fpp, _ := SimulateFPP(plat, opts(9216))
	coll, _ := SimulateCollective(plat, opts(9216))
	if coll.ClientSeconds < fpp.ClientSeconds {
		t.Errorf("collective (%gs) should be slower than FPP (%gs) at 9216 cores",
			coll.ClientSeconds, fpp.ClientSeconds)
	}
}

func TestDamarisDedicatedFitsComputeInterval(t *testing.T) {
	// §IV-C2: dedicated cores must finish writing well within the compute
	// interval (they stay idle 75%-99% of the time).
	for _, plat := range []cluster.Platform{cluster.Kraken(), cluster.Grid5000(), cluster.BluePrint()} {
		cores := plat.CoresPerNode * 48
		if cores > plat.MaxCores {
			cores = plat.MaxCores
		}
		r, err := SimulateDamaris(plat, opts(cores))
		if err != nil {
			t.Fatal(err)
		}
		interval := 50 * plat.IterationSeconds
		busy := stats.Mean(r.DedicatedBusySeconds)
		if busy > interval*0.25 {
			t.Errorf("%s: dedicated busy %.1fs exceeds 25%% of interval %.0fs", plat.Name, busy, interval)
		}
		// Without scheduling every writer starts at phase end, so the
		// slowest writer's busy time is the asynchronous I/O span.
		if span := stats.Max(r.DedicatedBusySeconds); span > interval {
			t.Errorf("%s: I/O span %.1fs exceeds compute interval", plat.Name, span)
		}
	}
}

func TestSchedulingImprovesApparentThroughput(t *testing.T) {
	// §IV-D: 9.7 -> 13.1 GB/s at 2304 cores on Kraken.
	plat := cluster.Kraken()
	base, err := Phases("damaris", plat, Options{Cores: 2304, Seed: 11}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Phases("damaris", plat, Options{Cores: 2304, Seed: 11, Scheduling: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := stats.Mean(AggregateBps(base))
	s := stats.Mean(AggregateBps(sched))
	if s <= b {
		t.Fatalf("scheduling did not help: %.2f -> %.2f GB/s", b/1e9, s/1e9)
	}
	// Both within 25% of the paper's values.
	if b < 9.7e9*0.75 || b > 9.7e9*1.25 {
		t.Errorf("unscheduled = %.2f GB/s, paper 9.7", b/1e9)
	}
	if s < 13.1e9*0.75 || s > 13.1e9*1.25 {
		t.Errorf("scheduled = %.2f GB/s, paper 13.1", s/1e9)
	}
}

func TestCompressionOverheadOnKrakenOnly(t *testing.T) {
	// §IV-D / Fig 7: gzip slows the dedicated cores on Kraken (slow cores)
	// but not on Grid'5000.
	busyOf := func(plat cluster.Platform, cores int, comp bool) float64 {
		r, err := SimulateDamaris(plat, Options{Cores: cores, Seed: 3, Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(r.DedicatedBusySeconds)
	}
	krPlain := busyOf(cluster.Kraken(), 2304, false)
	krComp := busyOf(cluster.Kraken(), 2304, true)
	if krComp <= krPlain {
		t.Errorf("Kraken: compression should add overhead (%.2f -> %.2f)", krPlain, krComp)
	}
	g5Plain := busyOf(cluster.Grid5000(), 912, false)
	g5Comp := busyOf(cluster.Grid5000(), 912, true)
	if g5Comp > g5Plain*1.25 {
		t.Errorf("Grid5000: compression should be roughly free (%.2f -> %.2f)", g5Plain, g5Comp)
	}
}

func TestTable1Shape(t *testing.T) {
	// Grid'5000 at 672 cores: Damaris ≥ 4x both baselines; baselines within
	// 2x of the paper's absolute values.
	plat := cluster.Grid5000()
	get := func(strat string) float64 {
		rs, err := Phases(strat, plat, Options{Cores: 672, Seed: 5}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(AggregateBps(rs))
	}
	fpp := get("fpp")
	coll := get("collective")
	dam := get("damaris")
	if dam < 4*fpp || dam < 4*coll {
		t.Errorf("Damaris %.2f GB/s should be ≥4x fpp %.2f and collective %.2f",
			dam/1e9, fpp/1e9, coll/1e9)
	}
	check := func(name string, got, paper float64) {
		if got < paper/2 || got > paper*2 {
			t.Errorf("%s = %.0f MB/s, paper %.0f MB/s (outside 2x)", name, got/1e6, paper/1e6)
		}
	}
	check("fpp", fpp, 695e6)
	check("collective", coll, 636e6)
	check("damaris", dam, 4.32e9)
}

func TestFig6Ratios(t *testing.T) {
	// Kraken @9216: Damaris ≈6x FPP and ≈15x collective (allow 2x slack).
	plat := cluster.Kraken()
	get := func(strat string) float64 {
		rs, err := Phases(strat, plat, Options{Cores: 9216, Seed: 42, Interference: true}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(AggregateBps(rs))
	}
	fpp := get("fpp")
	coll := get("collective")
	dam := get("damaris")
	if r := dam / fpp; r < 3 || r > 12 {
		t.Errorf("Damaris/FPP = %.1fx, paper ≈6x", r)
	}
	if r := dam / coll; r < 7.5 || r > 30 {
		t.Errorf("Damaris/collective = %.1fx, paper ≈15x", r)
	}
}

func TestBluePrintVolumeScaling(t *testing.T) {
	// Fig 3: FPP write time grows with data volume, Damaris stays flat.
	plat := cluster.BluePrint()
	fppSmall, _ := SimulateFPP(plat, Options{Cores: 1024, Seed: 1, BytesPerCore: 3.5e9 / 1024})
	fppLarge, _ := SimulateFPP(plat, Options{Cores: 1024, Seed: 1, BytesPerCore: 30.7e9 / 1024})
	if fppLarge.ClientSeconds < 3*fppSmall.ClientSeconds {
		t.Errorf("FPP should grow with volume: %.1fs -> %.1fs", fppSmall.ClientSeconds, fppLarge.ClientSeconds)
	}
	damLarge, _ := SimulateDamaris(plat, Options{Cores: 1024, Seed: 1, BytesPerCore: 30.7e9 / 1024})
	if damLarge.ClientSeconds > 1 {
		t.Errorf("Damaris phase %.2fs should stay sub-second at 30 GB", damLarge.ClientSeconds)
	}
}

func TestMultipleDedicatedCores(t *testing.T) {
	plat := cluster.Kraken()
	r, err := SimulateDamaris(plat, Options{Cores: 576, Seed: 1, DedicatedPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 48 nodes x 2 dedicated cores.
	if len(r.DedicatedBusySeconds) != 96 {
		t.Errorf("writers = %d, want 96", len(r.DedicatedBusySeconds))
	}
	if r.ClientSeconds <= 0 {
		t.Error("client phase missing")
	}
}

func TestPhasesSeedsDiffer(t *testing.T) {
	plat := cluster.Kraken()
	rs, err := Phases("fpp", plat, Options{Cores: 576, Seed: 9, Interference: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("phases = %d", len(rs))
	}
	cs := ClientSeconds(rs)
	allSame := true
	for _, c := range cs[1:] {
		if c != cs[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("independent phases should vary")
	}
	if len(AggregateBps(rs)) != 4 {
		t.Error("AggregateBps length wrong")
	}
}

// Aggregation tiers change the stream topology: mode "core" runs one writer
// per node, mode "node" one per dedicated aggregator node, and both stay
// deterministic under a fixed seed.
func TestDamarisAggregationTiers(t *testing.T) {
	plat := cluster.Grid5000()
	base := Options{Cores: 10 * plat.CoresPerNode, Seed: 7, DedicatedPerNode: 2}

	off, err := SimulateDamaris(plat, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(off.DedicatedBusySeconds); got != 10*2 {
		t.Errorf("off: writers = %d, want 20 (one per dedicated core)", got)
	}

	core := base
	core.AggregateMode = "core"
	cr, err := SimulateDamaris(plat, core)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cr.DedicatedBusySeconds); got != 10 {
		t.Errorf("core: writers = %d, want 10 (one per node)", got)
	}

	node := base
	node.AggregateMode = "node"
	node.AggregatorNodes = 2
	nr, err := SimulateDamaris(plat, node)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nr.DedicatedBusySeconds); got != 2 {
		t.Errorf("node: writers = %d, want 2 (one per aggregator node)", got)
	}

	// The logical volume, throughput times the mean writer's busy time, is
	// mode-independent.
	volume := func(r PhaseResult) float64 { return r.AggregateBps * stats.Mean(r.DedicatedBusySeconds) }
	for mode, r := range map[string]PhaseResult{"core": cr, "node": nr} {
		if got, want := volume(r), volume(off); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s volume = %g, want %g", mode, got, want)
		}
	}

	// Determinism: same seed, same result.
	nr2, err := SimulateDamaris(plat, node)
	if err != nil {
		t.Fatal(err)
	}
	if nr.AggregateBps != nr2.AggregateBps || !slices.Equal(nr.DedicatedBusySeconds, nr2.DedicatedBusySeconds) {
		t.Errorf("node mode not deterministic: %g/%v vs %g/%v",
			nr.AggregateBps, nr.DedicatedBusySeconds, nr2.AggregateBps, nr2.DedicatedBusySeconds)
	}

	// Unknown modes fail loudly.
	bad := base
	bad.AggregateMode = "rack"
	if _, err := SimulateDamaris(plat, bad); err == nil {
		t.Error("unknown aggregate mode accepted")
	}

	// Aggregator count is clamped to the node count and defaults sanely.
	one := base
	one.AggregateMode = "node"
	one.AggregatorNodes = 64
	or, err := SimulateDamaris(plat, one)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(or.DedicatedBusySeconds); got != 10 {
		t.Errorf("clamped aggregators = %d, want 10", got)
	}
}

// Aggregation composes with the paper's compression and scheduling options.
func TestDamarisAggregationComposesWithOptions(t *testing.T) {
	plat := cluster.Kraken()
	opt := Options{
		Cores:            24 * plat.CoresPerNode,
		Seed:             3,
		DedicatedPerNode: 2,
		AggregateMode:    "node",
		AggregatorNodes:  3,
		Compression:      true,
		Scheduling:       true,
	}
	r, err := SimulateDamaris(plat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DedicatedBusySeconds) != 3 {
		t.Fatalf("writers = %d, want 3", len(r.DedicatedBusySeconds))
	}
	for i, b := range r.DedicatedBusySeconds {
		if b <= 0 {
			t.Errorf("aggregator %d never wrote (busy=%g)", i, b)
		}
	}
	if r.AggregateBps <= 0 {
		t.Errorf("throughput = %g", r.AggregateBps)
	}
}
