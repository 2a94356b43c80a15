// Package iostrat simulates the paper's three I/O strategies —
// file-per-process, collective (two-phase) I/O, and Damaris dedicated cores
// — on the cluster models, producing the write-phase durations, dedicated-
// core times and aggregate throughputs behind every figure of §IV.
//
// One call simulates one write phase of one strategy at one scale, in its
// own discrete-event engine; experiments repeat phases with different seeds
// to obtain the across-phase averages, maxima and minima the paper plots.
package iostrat

import (
	"fmt"
	"math"
	"math/rand"

	"damaris/internal/cluster"
	"damaris/internal/fs"
	"damaris/internal/jitter"
	"damaris/internal/sim"
)

// Options selects the scenario of one phase simulation.
type Options struct {
	// Cores is the total core count (compute + dedicated).
	Cores int
	// Seed drives all randomness of the phase.
	Seed int64
	// Interference enables cross-application file-system bursts.
	Interference bool
	// Compression makes Damaris dedicated cores gzip data before writing.
	Compression bool
	// Scheduling staggers Damaris dedicated-core writes over slots computed
	// from the compute-interval estimate (§IV-D).
	Scheduling bool
	// DedicatedPerNode is the number of Damaris cores per node (default 1).
	DedicatedPerNode int
	// AggregateMode selects the aggregation tier in front of storage: "" or
	// "off" writes one stream per dedicated core; "core" merges each node's
	// dedicated cores into one stream per node (both as the middleware's
	// <aggregate> element does); "node" (Damaris 2) additionally funnels
	// whole nodes through clientless aggregator nodes, one stream each — a
	// design the middleware does not implement (docs/aggregate.md).
	AggregateMode string
	// AggregatorNodes is the dedicated aggregator-node count for mode
	// "node" (0 = one per 16 compute nodes, minimum 1).
	AggregatorNodes int
	// BytesPerCore overrides the platform's per-core output volume
	// (BluePrint's Figure 3 varies it). Zero keeps the platform value.
	BytesPerCore float64
	// LockScale multiplies byte-range lock negotiation costs (≥1; 0 means
	// 1). Large Lustre stripes put more writers behind every lock, which is
	// how the paper's 32 MB-stripe misconfiguration triples collective
	// write time (§IV-C1).
	LockScale float64
}

func (o Options) dedicated() int {
	if o.DedicatedPerNode <= 0 {
		return 1
	}
	return o.DedicatedPerNode
}

func (o Options) aggregators(nodes int) int {
	if o.AggregatorNodes > 0 {
		return o.AggregatorNodes
	}
	a := nodes / 16
	if a < 1 {
		a = 1
	}
	return a
}

// PhaseResult is what one simulated write phase yields.
type PhaseResult struct {
	// ClientSeconds is the barrier-to-barrier write-phase duration seen by
	// the simulation (the paper's Figures 2 and 3 quantity).
	ClientSeconds float64
	// PerProcessSeconds is, for file-per-process, each compute process's
	// own completion time within the phase (fastest <1 s vs slowest >25 s
	// in §IV-C1); empty otherwise.
	PerProcessSeconds []float64
	// DedicatedBusySeconds is, for Damaris, each dedicated core's time
	// spent creating + writing (Figure 5 "write time"); empty otherwise.
	DedicatedBusySeconds []float64
	// AggregateBps is the throughput the strategy achieves. For the two
	// synchronous baselines it is the phase's logical volume over the
	// write-phase wall time. For Damaris it is that volume over the mean
	// dedicated-core write duration — the
	// paper's "apparent throughput […] from the point of view of the
	// dedicated cores" (§IV-D), which is also the only reading under which
	// its scheduling arithmetic (9.7 -> 13.1 GB/s at constant volume) holds.
	AggregateBps float64
}

// env bundles the per-phase simulation state.
type env struct {
	plat     cluster.Platform
	eng      *sim.Engine
	fsys     *fs.System
	rng      *rand.Rand
	nics     []*sim.Link
	avail    float64 // interference: fraction of FS bandwidth available
	bytes    float64 // per-core output volume
	metaLoad float64 // service-time factors, kept for round sub-environments
	lockLoad float64
}

func newEnv(plat cluster.Platform, opt Options) (*env, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if opt.Cores < plat.CoresPerNode || opt.Cores%plat.CoresPerNode != 0 {
		return nil, fmt.Errorf("iostrat: cores %d not a positive multiple of %d", opt.Cores, plat.CoresPerNode)
	}
	if opt.Cores > plat.MaxCores {
		return nil, fmt.Errorf("iostrat: cores %d exceed platform maximum %d", opt.Cores, plat.MaxCores)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	eng := sim.NewEngine()
	fsys, err := fs.New(eng, plat.FS, rng)
	if err != nil {
		return nil, err
	}
	e := &env{plat: plat, eng: eng, fsys: fsys, rng: rng, avail: 1, bytes: plat.BytesPerCore}
	if opt.BytesPerCore > 0 {
		e.bytes = opt.BytesPerCore
	}
	lockScale := opt.LockScale
	if lockScale < 1 {
		lockScale = 1
	}
	e.metaLoad, e.lockLoad = 1, lockScale
	if opt.Interference && plat.InterferenceProb > 0 {
		inf, err := jitter.NewInterference(rng, plat.InterferenceProb, 0.05, plat.InterferenceAlpha)
		if err != nil {
			return nil, err
		}
		e.avail = inf.AvailableFraction()
		// Other jobs slow server-side services too, not just data streams:
		// metadata mildly (one queued RPC per create), lock negotiation
		// superlinearly (revocations against every competing client).
		load := 1 / e.avail
		e.metaLoad = 1 + 0.15*(load-1)
		e.lockLoad = lockScale * math.Pow(load, 1.8)
	}
	fsys.SetLoadFactors(e.metaLoad, e.lockLoad)
	nodes := plat.Nodes(opt.Cores)
	e.nics = make([]*sim.Link, nodes)
	for i := range e.nics {
		e.nics[i] = sim.NewLink(eng, plat.NICBandwidth)
	}
	return e, nil
}

// straggler draws one process's service-time multiplier.
func (e *env) straggler() float64 {
	return jitter.Lognormal(e.rng, e.plat.StragglerSigma)
}

// fsBytes inflates a logical volume by the interference fraction: when only
// avail of the bandwidth is ours, writing b bytes takes as long as b/avail
// on a quiet system.
func (e *env) fsBytes(b float64) float64 { return b / e.avail }

// SimulateFPP runs one file-per-process write phase: every compute core
// creates its own file (queueing at the metadata service) and streams its
// subdomain through its node NIC and the storage pool.
func SimulateFPP(plat cluster.Platform, opt Options) (PhaseResult, error) {
	e, err := newEnv(plat, opt)
	if err != nil {
		return PhaseResult{}, err
	}
	n := opt.Cores
	perCore := e.bytes
	completions := make([]float64, n)
	for i := 0; i < n; i++ {
		node := i / plat.CoresPerNode
		mult := e.straggler()
		// create -> NIC -> pool, each stage contended.
		e.fsys.CreateFile(func() {
			e.nics[node].Transfer(perCore, func() {
				e.fsys.Write(e.fsBytes(perCore*mult), 0, func() {
					completions[i] = e.eng.Now()
				})
			})
		})
	}
	end := e.eng.Run()
	return PhaseResult{
		ClientSeconds:     end,
		PerProcessSeconds: completions,
		AggregateBps:      float64(n) * perCore / end,
	}, nil
}

// SimulateCollective runs one two-phase collective I/O write phase: a
// global synchronization, a shared-file open per rank, aggregation of each
// node's data at one aggregator, then lock-negotiated rounds of writes with
// a barrier per round (the ROMIO cb_buffer_size cycle).
func SimulateCollective(plat cluster.Platform, opt Options) (PhaseResult, error) {
	e, err := newEnv(plat, opt)
	if err != nil {
		return PhaseResult{}, err
	}
	n := opt.Cores
	nodes := plat.Nodes(n)
	perCore := e.bytes
	perAgg := perCore * float64(plat.CoresPerNode)
	barrier := plat.SyncLatency * math.Log2(float64(n))

	// Stage timing is composed sequentially: sync + opens + shuffle happen
	// before the first round.
	// Shared-file opens queue at the metadata service.
	opened := 0
	for i := 0; i < n; i++ {
		e.fsys.OpenShared(func() { opened++ })
	}
	// Aggregation: each node funnels its cores' data through its NIC.
	shuffled := 0
	for a := 0; a < nodes; a++ {
		e.nics[a].Transfer(perAgg, func() { shuffled++ })
	}
	prep := e.eng.Run() + barrier

	// Write rounds: every aggregator locks then writes one round; a barrier
	// separates rounds, so each round lasts until its slowest writer.
	rounds := int(math.Ceil(perAgg / plat.CollectiveRoundBytes))
	elapsed := prep
	for r := 0; r < rounds; r++ {
		re, err := newRoundEnv(e)
		if err != nil {
			return PhaseResult{}, err
		}
		for a := 0; a < nodes; a++ {
			mult := e.straggler()
			re.fsys.AcquireLock(func() {
				re.fsys.Write(e.fsBytes(plat.CollectiveRoundBytes*mult), 0, nil)
			})
		}
		elapsed += re.eng.Run() + barrier
	}
	// Collective: every process finishes with the last round.
	return PhaseResult{
		ClientSeconds: elapsed,
		AggregateBps:  float64(n) * perCore / elapsed,
	}, nil
}

// newRoundEnv builds a fresh engine+fs sharing the parent's RNG,
// interference draw and load factors, so each collective round contends
// independently under the same external conditions.
func newRoundEnv(parent *env) (*env, error) {
	eng := sim.NewEngine()
	fsys, err := fs.New(eng, parent.plat.FS, parent.rng)
	if err != nil {
		return nil, err
	}
	fsys.SetLoadFactors(parent.metaLoad, parent.lockLoad)
	return &env{plat: parent.plat, eng: eng, fsys: fsys, rng: parent.rng, avail: parent.avail,
		bytes: parent.bytes, metaLoad: parent.metaLoad, lockLoad: parent.lockLoad}, nil
}

// SimulateDamaris runs one Damaris write phase. The client-visible phase is
// the shared-memory copies only; the dedicated cores then asynchronously
// create one file per node and stream the node's aggregated data, optionally
// compressed and optionally slot-scheduled.
func SimulateDamaris(plat cluster.Platform, opt Options) (PhaseResult, error) {
	e, err := newEnv(plat, opt)
	if err != nil {
		return PhaseResult{}, err
	}
	dedicated := opt.dedicated()
	if dedicated >= plat.CoresPerNode {
		return PhaseResult{}, fmt.Errorf("iostrat: %d dedicated cores leave no clients on %d-core nodes",
			dedicated, plat.CoresPerNode)
	}
	nodes := plat.Nodes(opt.Cores)
	clientsPerNode := plat.CoresPerNode - dedicated
	n := nodes * clientsPerNode // compute processes
	// Equivalent total problem: the same global domain over fewer cores
	// (paper: 44x44x200 per core becomes 48x44x200 with 11 of 12 cores).
	perClient := e.bytes * float64(plat.CoresPerNode) / float64(clientsPerNode)

	// Client-visible phase: concurrent memcpys into the node's shared
	// segment; small OS-noise spread only.
	phase := 0.0
	for range n {
		phase = max(phase, perClient/plat.MemcpyRate*jitter.Lognormal(e.rng, plat.OSNoiseSigma))
	}

	// Asynchronous dedicated-core I/O. The aggregation tier decides how many
	// independent streams hit the file system per epoch:
	//
	//   - off:  one per dedicated core (nodes * dedicated files)
	//   - core: one per node — the node's dedicated cores fan in to their
	//     leader over shared memory, which is free at simulation granularity;
	//     the win is fewer creates and fewer concurrent streams
	//   - node: one per dedicated aggregator node — compute nodes forward
	//     their merged data across the interconnect (their NIC, then the
	//     aggregator's ingest NIC: the new fan-in contention point) before a
	//     handful of writers touch storage at all
	perNode := perClient * float64(clientsPerNode)
	interval := plat.IterationSeconds * 50
	total := float64(n) * perClient

	var writers int
	var perWriter float64
	switch opt.AggregateMode {
	case "", "off":
		writers = nodes * dedicated
		perWriter = perNode / float64(dedicated)
	case "core":
		writers = nodes
		perWriter = perNode
	case "node":
		return damarisResult(phase, e.damarisNodeTier(plat, opt, nodes, perNode, interval), total), nil
	default:
		return PhaseResult{}, fmt.Errorf("iostrat: unknown aggregate mode %q", opt.AggregateMode)
	}

	writeBytes := perWriter
	cpuOverhead := 0.0
	if opt.Compression {
		writeBytes = perWriter / plat.GzipRatio
		cpuOverhead = perWriter / plat.GzipRate
	}
	// Slot scheduling: the compute interval estimate divided into one slot
	// per writer (§IV-D: "this time is then divided into as many slots as
	// dedicated cores. Each dedicated core then waits for its slot").
	slot := 0.0
	if opt.Scheduling {
		slot = interval / float64(writers)
	}

	busy := make([]float64, writers)
	for w := 0; w < writers; w++ {
		w := w
		start := float64(w) * slot
		mult := jitter.Lognormal(e.rng, plat.DedicatedStragglerSigma)
		e.eng.At(start, func() {
			s0 := e.eng.Now()
			e.fsys.CreateFile(func() {
				e.eng.After(cpuOverhead, func() {
					e.fsys.WriteStream(e.fsBytes(writeBytes*mult), plat.DamarisStripes,
						plat.NodeStreamCap, func() {
							busy[w] = e.eng.Now() - s0
						})
				})
			})
		})
	}
	e.eng.Run()
	return damarisResult(phase, busy, total), nil
}

// damarisNodeTier simulates aggregate mode "node": every compute node's
// leader (optionally compressing first) forwards the node's merged bytes
// through its own NIC and the target aggregator node's ingest NIC; once an
// aggregator has collected all of its nodes' data for the epoch it creates
// one file and streams the whole group's bytes. Returns each aggregator
// writer's busy time (create + write, the Figure-5 quantity).
func (e *env) damarisNodeTier(plat cluster.Platform, opt Options, nodes int,
	perNode, interval float64) []float64 {
	aggs := opt.aggregators(nodes)
	if aggs > nodes {
		aggs = nodes
	}
	forwardBytes := perNode
	cpuOverhead := 0.0
	if opt.Compression {
		forwardBytes = perNode / plat.GzipRatio
		cpuOverhead = perNode / plat.GzipRate
	}
	slot := 0.0
	if opt.Scheduling {
		slot = interval / float64(aggs)
	}

	ingest := make([]*sim.Link, aggs)
	for a := range ingest {
		ingest[a] = sim.NewLink(e.eng, plat.AggregatorIngest())
	}
	pending := make([]float64, aggs) // bytes collected per aggregator
	remaining := make([]int, aggs)   // nodes still forwarding
	mults := make([]float64, aggs)   // one straggler draw per aggregate write
	for a := range mults {
		mults[a] = jitter.Lognormal(e.rng, plat.DedicatedStragglerSigma)
	}
	busy := make([]float64, aggs)
	assign := func(node int) int { return node * aggs / nodes }
	for node := 0; node < nodes; node++ {
		remaining[assign(node)]++
	}
	for node := 0; node < nodes; node++ {
		node := node
		a := assign(node)
		e.eng.After(cpuOverhead, func() {
			e.nics[node].Transfer(forwardBytes, func() {
				ingest[a].Transfer(forwardBytes, func() {
					pending[a] += forwardBytes
					remaining[a]--
					if remaining[a] > 0 {
						return
					}
					// Whole group collected: the aggregator waits for its
					// slot (if scheduled), then writes one file for the
					// epoch. A dedicated aggregator node is all I/O: its
					// file stripes as wide as the group it serves, and the
					// single-client stream cap — the limit dedicating whole
					// nodes to I/O exists to escape — does not apply.
					stripes := plat.DamarisStripes * (nodes / aggs)
					write := func() {
						s0 := e.eng.Now()
						e.fsys.CreateFile(func() {
							e.fsys.WriteStream(e.fsBytes(pending[a]*mults[a]), stripes,
								0, func() {
									busy[a] = e.eng.Now() - s0
								})
						})
					}
					start := float64(a) * slot
					if e.eng.Now() < start {
						e.eng.At(start, write)
					} else {
						write()
					}
				})
			})
		})
	}
	e.eng.Run()
	return busy
}

// damarisResult assembles the common Damaris phase result.
func damarisResult(phase float64, busy []float64, total float64) PhaseResult {
	meanBusy := 0.0
	for _, b := range busy {
		meanBusy += b
	}
	meanBusy /= float64(len(busy))
	if meanBusy <= 0 {
		meanBusy = math.SmallestNonzeroFloat64
	}
	return PhaseResult{
		ClientSeconds:        phase,
		DedicatedBusySeconds: busy,
		AggregateBps:         total / meanBusy,
	}
}

// Simulate dispatches by strategy name ("file-per-process", "collective",
// "damaris").
func Simulate(strategy string, plat cluster.Platform, opt Options) (PhaseResult, error) {
	switch strategy {
	case "file-per-process", "fpp":
		return SimulateFPP(plat, opt)
	case "collective":
		return SimulateCollective(plat, opt)
	case "damaris":
		return SimulateDamaris(plat, opt)
	default:
		return PhaseResult{}, fmt.Errorf("iostrat: unknown strategy %q", strategy)
	}
}

// Phases runs `phases` independent write phases (seeds seed, seed+1, …) and
// returns their results.
func Phases(strategy string, plat cluster.Platform, opt Options, phases int) ([]PhaseResult, error) {
	if phases < 1 {
		return nil, fmt.Errorf("iostrat: need at least one phase")
	}
	out := make([]PhaseResult, phases)
	for i := range out {
		o := opt
		o.Seed = opt.Seed + int64(i)
		r, err := Simulate(strategy, plat, o)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// ClientSeconds extracts the per-phase client-visible durations.
func ClientSeconds(rs []PhaseResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ClientSeconds
	}
	return out
}

// AggregateBps extracts the per-phase aggregate throughputs.
func AggregateBps(rs []PhaseResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.AggregateBps
	}
	return out
}
