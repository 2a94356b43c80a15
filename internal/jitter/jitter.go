// Package jitter provides the stochastic noise models behind the
// simulator's performance variability.
//
// The paper (§II-A, citing Skinner & Kramer [28]) lists four causes of
// jitter: (1) intra-node resource contention, (2) communication/
// synchronization, (3) kernel process scheduling and OS noise, and
// (4) cross-application contention. Causes 1–2 emerge structurally from the
// simulator's shared resources; this package supplies causes 3–4 as
// seeded stochastic processes: multiplicative lognormal OS noise on service
// times, and episodic heavy-tailed interference from other jobs sharing the
// file system ("external interferences" in Lofstead et al. [17]).
package jitter

import (
	"fmt"
	"math"
	"math/rand"
)

// Lognormal samples a lognormal multiplier with median 1 and the given
// sigma; sigma 0 returns exactly 1.
func Lognormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}

// Pareto samples a Pareto(xm, alpha) value — the heavy tail behind the
// paper's "some processes take 25 s while most take under 1 s" observation.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Interference models cross-application file-system contention: most of the
// time the system is quiet, but with probability BurstProb an I/O phase
// collides with another job's burst, and the available bandwidth drops by a
// heavy-tailed factor.
type Interference struct {
	rng *rand.Rand
	// BurstProb is the probability that a phase sees a competing burst.
	BurstProb float64
	// BaseLoad is the steady background load fraction (0..1) always
	// present on shared storage.
	BaseLoad float64
	// BurstAlpha shapes the Pareto tail of burst loads (smaller = heavier).
	BurstAlpha float64
}

// NewInterference builds a cross-application interference source.
func NewInterference(rng *rand.Rand, burstProb, baseLoad, burstAlpha float64) (*Interference, error) {
	if burstProb < 0 || burstProb > 1 {
		return nil, fmt.Errorf("jitter: burst probability %g outside [0,1]", burstProb)
	}
	if baseLoad < 0 || baseLoad >= 1 {
		return nil, fmt.Errorf("jitter: base load %g outside [0,1)", baseLoad)
	}
	if burstAlpha <= 0 {
		return nil, fmt.Errorf("jitter: non-positive burst alpha %g", burstAlpha)
	}
	return &Interference{rng: rng, BurstProb: burstProb, BaseLoad: baseLoad, BurstAlpha: burstAlpha}, nil
}

// AvailableFraction draws the fraction of file-system bandwidth available
// to this application for one I/O phase. Always in (0, 1].
func (i *Interference) AvailableFraction() float64 {
	load := i.BaseLoad
	if i.rng.Float64() < i.BurstProb {
		// A competing burst claims a Pareto-tailed share.
		extra := Pareto(i.rng, 0.15, i.BurstAlpha)
		if extra > 0.85 {
			extra = 0.85
		}
		load += extra
	}
	if load >= 0.97 {
		load = 0.97
	}
	return 1 - load
}
