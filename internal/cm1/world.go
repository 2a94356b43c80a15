package cm1

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// Strategies are the I/O strategies the paper compares, as RunWorld names
// them.
var Strategies = []string{"damaris", "fpp", "collective"}

// WorldSpec is one run of the paper's application: CM1 on Ranks cores, in
// SMP nodes of CoresPerNode, writing through one strategy.
type WorldSpec struct {
	// Strategy is one of Strategies. Damaris gives the last core of each
	// node to its dedicated core, so the simulation computes on
	// Ranks − Ranks/CoresPerNode ranks; the baselines compute on every rank.
	// Steps and OutputEvery are Run's.
	Strategy                                string
	Ranks, CoresPerNode, Steps, OutputEvery int
	// Grid sizes the simulation over px × py compute ranks (DefaultParams
	// when nil).
	Grid func(px, py int) Params
	// Config carries the middleware's knobs. Under Damaris RunWorld adds to
	// it what the mini-app declares: one dedicated core, the subdomain's
	// layout, the variables and the stats event, in a BufferSize buffer.
	Config *config.Config
	// Shared, when set, is the one backend every rank writes through: each
	// baseline rank directly, each dedicated core by a DSF persister. The
	// caller keeps it, and with it the commits and the bytes. When nil, the
	// baselines' ranks share one instance of Config's PersistBackend, which
	// RunWorld opens and closes, and each dedicated core opens its own.
	Shared store.Backend
	// Obs is the telemetry plane the dedicated cores register on (nil: off).
	Obs *obs.Plane
	// AfterStep, when set, runs on each compute rank after each Step, as the
	// rest of its compute phase.
	AfterStep func()
}

// WorldResult is what one world measured: each compute rank's write phases
// by world rank (none on a dedicated core, those before its failure on a
// failed rank), and over the Damaris clients the write phases in which one
// waited (core.Client.Waits; the registry's damaris_client_waits_total
// counts the waits themselves).
type WorldResult struct {
	Phases  [][]time.Duration
	Blocked int
}

// RunWorld runs one world and returns what it measured, or the first rank's
// failure: a failing rank aborts the world (mpi.Run), and a failing Damaris
// client finalizes, so that its dedicated core returns too. The knobs are
// validated before any rank starts or anything is opened.
func RunWorld(spec WorldSpec) (res WorldResult, err error) {
	if !slices.Contains(Strategies, spec.Strategy) {
		return res, fmt.Errorf("cm1: unknown strategy %q", spec.Strategy)
	}
	if spec.CoresPerNode <= 0 || spec.Ranks%spec.CoresPerNode != 0 {
		return res, fmt.Errorf("cm1: ranks %d not a multiple of cores per node %d", spec.Ranks, spec.CoresPerNode)
	}
	damaris := spec.Strategy == "damaris"
	compute := spec.Ranks
	if damaris {
		compute -= spec.Ranks / spec.CoresPerNode
	}
	if spec.Grid == nil {
		spec.Grid = DefaultParams
	}
	p, cfg := spec.Grid(compute, 1), spec.Config
	if damaris {
		decl, err := config.ParseString(ConfigXML(p, cfg.BufferSize, cfg.Allocator, 1))
		if err != nil {
			return res, err
		}
		cfg.DedicatedCores = decl.DedicatedCores
		cfg.Layouts, cfg.Variables, cfg.Events = decl.Layouts, decl.Variables, decl.Events
	}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	codec, err := dsf.CodecNamed(cfg.PersistCodec)
	if err != nil {
		return res, err
	}
	shared := spec.Shared
	if shared == nil && !damaris {
		if shared, err = store.OpenWith(cfg.PersistBackend, cfg.StoreOptions()); err != nil {
			return res, err
		}
		defer func() {
			if cerr := shared.Close(); err == nil {
				err = cerr
			}
		}()
	}

	res.Phases = make([][]time.Duration, spec.Ranks)
	var mu sync.Mutex
	rank := func(world *mpi.Comm) error {
		comm := world
		var b Backend
		switch spec.Strategy {
		case "damaris":
			opts := core.Options{Obs: spec.Obs}
			if shared != nil {
				opts.Persister = &core.DSFPersister{Backend: shared, Codec: codec, GzipLevel: cfg.PersistGzipLevel,
					Node: world.Node(), ServerID: world.Rank()}
			}
			dep, err := core.Deploy(world, cfg, nil, opts)
			if err != nil {
				return err
			}
			if !dep.IsClient() {
				return dep.Server.Run()
			}
			comm, b = dep.ClientComm, NewDamarisBackend(dep.Client)
		case "fpp":
			b = NewFPPBackend(shared, codec, world.Rank())
		case "collective":
			b = NewCollectiveBackend(shared, world)
		}
		// Close on every path, an abort's unwinding too: a Damaris client
		// that never finalizes holds its dedicated core forever.
		defer b.Close()
		sim, err := newSim(comm, p)
		if err != nil {
			return err
		}
		if res.Phases[world.Rank()], err = Run(sim, b, spec.Steps, spec.OutputEvery, spec.AfterStep); err != nil {
			return err
		}
		if d, ok := b.(*DamarisBackend); ok {
			mu.Lock()
			res.Blocked += d.blocked
			mu.Unlock()
		}
		return b.Close()
	}
	err = mpi.Run(spec.Ranks, spec.CoresPerNode, func(world *mpi.Comm) {
		if err := rank(world); err != nil {
			world.Abort(err)
		}
	})
	return res, err
}

// newSim is New; a test replaces it to fail a rank in its place.
var newSim = New
