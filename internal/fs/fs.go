// Package fs models the three parallel file systems of the paper's
// evaluation platforms: Lustre (Kraken), PVFS (Grid'5000) and GPFS
// (BluePrint).
//
// The models capture the contention mechanisms the paper identifies
// (§I, §II-B):
//
//   - metadata-service serialization — "File systems using a single metadata
//     server, such as Lustre, suffer from a bottleneck: simultaneous
//     creations of so many files are serialized, which leads to immense I/O
//     variability" (file-per-process storm);
//   - byte-range locking — "byte-range locking in GPFS or equivalent
//     mechanisms in Lustre cause lock contentions when writing to shared
//     files" (collective-I/O penalty);
//   - storage-target sharing — many concurrent streams degrade aggregate
//     disk efficiency (seeks, cache thrash), modeled by a concurrency-
//     dependent efficiency curve on the shared storage pool.
//
// Data transfers move through a shared storage pool Link with fair sharing
// plus the efficiency curve; metadata and lock traffic queue at FCFS
// Resources. Everything is driven by a caller-owned seeded PRNG.
package fs

import (
	"fmt"
	"math"
	"math/rand"

	"damaris/internal/sim"
)

// Config describes a parallel file system deployment.
type Config struct {
	// Name labels the model ("lustre", "pvfs", "gpfs").
	Name string
	// MetadataServers is the parallel capacity of the metadata service
	// (Lustre: 1; PVFS: one per I/O server; GPFS: 2 NSD token servers).
	MetadataServers int
	// CreateCost is the mean metadata service time to create a file (s).
	CreateCost float64
	// OpenCost is the mean metadata service time to open an existing or
	// shared file (s).
	OpenCost float64
	// Targets is the number of storage targets (OSTs / I/O servers / NSDs).
	Targets int
	// TargetBandwidth is each target's streaming write bandwidth (B/s).
	TargetBandwidth float64
	// DefaultStripes is how many targets a single file spreads over
	// (Lustre default stripe_count; PVFS distribution width).
	DefaultStripes int
	// LockCost is the serialized byte-range lock negotiation cost charged
	// per writer on shared files (s); zero for PVFS (no locking).
	LockCost float64
	// EffHalf and EffExp shape the concurrency-efficiency curve
	// eff(n) = 1 / (1 + (n/EffHalf)^EffExp): with n concurrent streams the
	// pool delivers aggregate * eff(n). EffHalf <= 0 disables degradation.
	EffHalf float64
	EffExp  float64
	// NoiseSigma is the lognormal sigma applied to metadata service times
	// (OS noise, server-side variability).
	NoiseSigma float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MetadataServers < 1 {
		return fmt.Errorf("fs: %s: need at least one metadata server", c.Name)
	}
	if c.Targets < 1 {
		return fmt.Errorf("fs: %s: need at least one storage target", c.Name)
	}
	if c.TargetBandwidth <= 0 {
		return fmt.Errorf("fs: %s: non-positive target bandwidth", c.Name)
	}
	if c.CreateCost < 0 || c.OpenCost < 0 || c.LockCost < 0 {
		return fmt.Errorf("fs: %s: negative service cost", c.Name)
	}
	if c.DefaultStripes < 1 || c.DefaultStripes > c.Targets {
		return fmt.Errorf("fs: %s: stripes %d outside [1,%d]", c.Name, c.DefaultStripes, c.Targets)
	}
	return nil
}

// System is an instantiated file system inside a simulation.
type System struct {
	cfg  Config
	eng  *sim.Engine
	rng  *rand.Rand
	mds  *sim.Resource
	lock *sim.Resource
	pool *sim.Link

	metaLoad float64 // cross-application load multiplier on metadata service
	lockLoad float64 // cross-application load multiplier on lock negotiation

	creates int64
	opens   int64
	locks   int64
}

// New instantiates the file system model in an engine.
func New(eng *sim.Engine, cfg Config, rng *rand.Rand) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		eng:      eng,
		rng:      rng,
		mds:      sim.NewResource(eng, cfg.MetadataServers),
		lock:     sim.NewResource(eng, 1), // token/lock managers serialize
		pool:     sim.NewLink(eng, cfg.TargetBandwidth*float64(cfg.Targets)),
		metaLoad: 1,
		lockLoad: 1,
	}
	if cfg.EffHalf > 0 {
		half, exp := cfg.EffHalf, cfg.EffExp
		s.pool.Efficiency = func(n int) float64 {
			return 1 / (1 + math.Pow(float64(n)/half, exp))
		}
	}
	return s, nil
}

// SetLoadFactors scales metadata (meta) and lock-negotiation (lock) service
// times, both clamped to ≥ 1, modeling cross-application pressure on the
// shared servers (§II-A cause 4). The two differ deliberately: a create is
// one queued RPC and degrades mildly, while byte-range lock negotiation
// involves revocation round-trips with every competing client and degrades
// superlinearly — which is why the paper sees modest spread (±17 s) for
// file-per-process but a 481 s-average / 800 s-max spread for collective
// I/O on the same machine.
func (s *System) SetLoadFactors(meta, lock float64) {
	if meta < 1 {
		meta = 1
	}
	if lock < 1 {
		lock = 1
	}
	s.metaLoad = meta
	s.lockLoad = lock
}

// noisy scales a mean service time by a load factor and lognormal noise.
func (s *System) noisy(mean, load float64) float64 {
	if mean == 0 {
		return 0
	}
	mean *= load
	if s.cfg.NoiseSigma <= 0 {
		return mean
	}
	// Lognormal with median = mean (mu = ln mean).
	return mean * math.Exp(s.rng.NormFloat64()*s.cfg.NoiseSigma)
}

// CreateFile queues a file creation on the metadata service; done fires when
// the create completes. This is the per-file cost that makes the
// file-per-process approach collapse at scale on single-MDS systems.
func (s *System) CreateFile(done func()) {
	s.creates++
	s.mds.Acquire(s.noisy(s.cfg.CreateCost, s.metaLoad), done)
}

// OpenShared queues a shared-file open (collective open of one file by many
// ranks hits the metadata service once per rank for handle+layout).
func (s *System) OpenShared(done func()) {
	s.opens++
	s.mds.Acquire(s.noisy(s.cfg.OpenCost, s.metaLoad), done)
}

// AcquireLock serializes a byte-range lock negotiation (per writer on a
// shared file); done fires when the lock is granted. No-op for lock-free
// file systems (LockCost == 0).
func (s *System) AcquireLock(done func()) {
	if s.cfg.LockCost == 0 {
		s.eng.After(0, done)
		return
	}
	s.locks++
	s.lock.Acquire(s.noisy(s.cfg.LockCost, s.lockLoad), done)
}

// Write streams `bytes` into the storage pool; done fires at completion.
// Concurrency effects (fair sharing + efficiency degradation) are handled
// by the pool link. The stripes parameter caps the rate one stream may
// reach: a file striped over k of T targets cannot exceed k targets' worth
// of bandwidth even when the pool is idle — which is why the paper's small
// default stripe counts bound single-writer throughput and why collective
// I/O is so sensitive to the stripe-size setting (§IV-C1: changing Lustre
// stripe size from 1 MB to 32 MB doubled the collective write time).
func (s *System) Write(bytes float64, stripes int, done func()) {
	s.WriteStream(bytes, stripes, 0, done)
}

// WriteStream is Write with an additional per-stream rate ceiling in
// bytes/sec (0 = none), modeling client-side limits below the stripe width
// — e.g. a single Lustre client's sustainable write rate.
func (s *System) WriteStream(bytes float64, stripes int, streamCap float64, done func()) {
	if stripes < 1 {
		stripes = s.cfg.DefaultStripes
	}
	if stripes > s.cfg.Targets {
		stripes = s.cfg.Targets
	}
	cap := float64(stripes) * s.cfg.TargetBandwidth
	if stripes == s.cfg.Targets {
		cap = 0 // full width: pool sharing is the only limit
	}
	if streamCap > 0 && (cap == 0 || streamCap < cap) {
		cap = streamCap
	}
	s.pool.TransferCapped(bytes, cap, done)
}

// Stats returns operation counters (creates, opens, lock negotiations).
func (s *System) Stats() (creates, opens, locks int64) {
	return s.creates, s.opens, s.locks
}

// Lustre returns the Kraken-like configuration: a single metadata server,
// hundreds of OSTs, byte-range locking, small default stripe count.
func Lustre(targets int, targetBW float64) Config {
	return Config{
		Name:            "lustre",
		MetadataServers: 1,
		CreateCost:      0.010, // single MDS create ~10 ms
		OpenCost:        0.002,
		Targets:         targets,
		TargetBandwidth: targetBW,
		DefaultStripes:  4,
		LockCost:        0.004,
		EffHalf:         450,
		EffExp:          1.6,
		NoiseSigma:      0.35,
	}
}

// PVFS returns the Grid'5000-like configuration: metadata distributed over
// all servers, no byte-range locks.
func PVFS(servers int, serverBW float64) Config {
	return Config{
		Name:            "pvfs",
		MetadataServers: servers,
		CreateCost:      0.004,
		OpenCost:        0.001,
		Targets:         servers,
		TargetBandwidth: serverBW,
		DefaultStripes:  servers,
		LockCost:        0, // PVFS does not lock
		EffHalf:         222,
		EffExp:          1.53,
		NoiseSigma:      0.30,
	}
}

// GPFS returns the BluePrint-like configuration: two NSD servers, token-
// based byte-range locking.
func GPFS(servers int, serverBW float64) Config {
	return Config{
		Name:            "gpfs",
		MetadataServers: 2,
		CreateCost:      0.006,
		OpenCost:        0.002,
		Targets:         servers,
		TargetBandwidth: serverBW,
		DefaultStripes:  servers,
		LockCost:        0.006,
		EffHalf:         300,
		EffExp:          1.5,
		NoiseSigma:      0.30,
	}
}
