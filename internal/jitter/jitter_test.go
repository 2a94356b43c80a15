package jitter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLognormalMedianOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	above := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if Lognormal(rng, 0.4) > 1 {
			above++
		}
	}
	frac := float64(above) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("median not ~1: %f above", frac)
	}
	if Lognormal(rng, 0) != 1 {
		t.Error("sigma 0 must return exactly 1")
	}
}

func TestParetoBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		x := Pareto(rng, 2, 1.5)
		if x < 2 {
			t.Fatalf("Pareto sample %v below xm", x)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// Pareto(1, 1.1) should produce some samples far above the median;
	// lognormal(0.2) should not. This is the "some processes take 25s"
	// behaviour.
	rng := rand.New(rand.NewSource(3))
	big := 0
	for i := 0; i < 10000; i++ {
		if Pareto(rng, 1, 1.1) > 20 {
			big++
		}
	}
	if big == 0 {
		t.Error("no heavy-tail samples from Pareto")
	}
}

// OS noise scales a nominal duration by one Lognormal draw (iostrat's
// compute phases): always positive, mean near the nominal for small sigma.
func TestOSNoisePerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const k = 5000
	for i := 0; i < k; i++ {
		d := 10 * Lognormal(rng, 0.1)
		if d <= 0 {
			t.Fatal("non-positive perturbed duration")
		}
		sum += d
	}
	mean := sum / k
	if mean < 9.5 || mean > 10.8 {
		t.Errorf("mean perturbed duration = %v", mean)
	}
}

func TestInterferenceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct{ p, base, alpha float64 }{
		{-0.1, 0, 1}, {1.1, 0, 1}, {0.5, -0.1, 1}, {0.5, 1.0, 1}, {0.5, 0.2, 0},
	}
	for i, c := range cases {
		if _, err := NewInterference(rng, c.p, c.base, c.alpha); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewInterference(rng, 0.3, 0.2, 1.2); err != nil {
		t.Error(err)
	}
}

func TestInterferenceFractionInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf, err := NewInterference(rng, 0.5, 0.3, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		f := inf.AvailableFraction()
		if f <= 0 || f > 1 {
			t.Fatalf("fraction %v out of (0,1]", f)
		}
	}
}

func TestInterferenceBurstsReduceBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	quiet, _ := NewInterference(rng, 0, 0.1, 1.1)
	noisy, _ := NewInterference(rand.New(rand.NewSource(9)), 0.8, 0.1, 1.1)
	var sq, sn float64
	const k = 5000
	for i := 0; i < k; i++ {
		sq += quiet.AvailableFraction()
		sn += noisy.AvailableFraction()
	}
	if sn/k >= sq/k {
		t.Errorf("bursty mean %v should be below quiet mean %v", sn/k, sq/k)
	}
}

func TestQuietAlwaysFull(t *testing.T) {
	q, err := NewInterference(rand.New(rand.NewSource(1)), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if q.AvailableFraction() != 1 {
			t.Fatal("a source with no bursts and no base load must always report full bandwidth")
		}
	}
}

// Property: interference fraction stays in (0,1] for arbitrary parameters.
func TestQuickInterferenceRange(t *testing.T) {
	f := func(seed int64, pRaw, baseRaw, alphaRaw uint8) bool {
		p := float64(pRaw) / 255
		base := float64(baseRaw) / 300 // < 1
		alpha := float64(alphaRaw%50)/10 + 0.1
		inf, err := NewInterference(rand.New(rand.NewSource(seed)), p, base, alpha)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			f := inf.AvailableFraction()
			if f <= 0 || f > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
