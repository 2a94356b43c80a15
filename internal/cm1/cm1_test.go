package cm1

import (
	"math"
	"sync"
	"testing"

	"damaris/internal/mpi"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Params{
		{GlobalNX: 0, GlobalNY: 4, NZ: 4, PX: 1, PY: 1},
		{GlobalNX: 4, GlobalNY: 4, NZ: 0, PX: 1, PY: 1},
		{GlobalNX: 4, GlobalNY: 4, NZ: 4, PX: 0, PY: 1},
		{GlobalNX: 5, GlobalNY: 4, NZ: 4, PX: 2, PY: 1, WorkFactor: 1},
		{GlobalNX: 4, GlobalNY: 5, NZ: 4, PX: 1, PY: 2, WorkFactor: 1},
		{GlobalNX: 4, GlobalNY: 4, NZ: 4, PX: 1, PY: 1, WorkFactor: 0},
	}
	for i, p := range bads {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, p)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	p := Params{GlobalNX: 44, GlobalNY: 88, NZ: 200, PX: 2, PY: 4, WorkFactor: 1}
	if p.LocalNX() != 22 || p.LocalNY() != 22 {
		t.Errorf("local = %dx%d", p.LocalNX(), p.LocalNY())
	}
}

func TestNewValidatesCommSize(t *testing.T) {
	err := mpi.Run(2, 2, func(c *mpi.Comm) {
		p := DefaultParams(1, 1) // needs 1 rank, comm has 2
		if _, err := New(c, p); err == nil {
			t.Error("size mismatch should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// field is name's interior as float32s, gathered through FieldInto.
func field(s *Sim, name string) ([]float32, error) {
	dst := make([]byte, 4*s.nx*s.ny*s.nz)
	if err := s.FieldInto(name, dst); err != nil {
		return nil, err
	}
	return mpi.BytesToFloat32s(dst), nil
}

func TestFieldExtraction(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		p := Params{GlobalNX: 8, GlobalNY: 6, NZ: 3, PX: 1, PY: 1, DT: 0.05, Kappa: 0.1, WorkFactor: 1}
		s, err := New(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		for _, name := range VariableNames {
			xs, err := field(s, name)
			if err != nil {
				t.Error(err)
				continue
			}
			if len(xs) != 8*6*3 {
				t.Errorf("%s: len = %d", name, len(xs))
			}
		}
		if _, err := field(s, "pressure"); err == nil {
			t.Error("unknown field should fail")
		}
		for _, n := range []int{0, 4*8*6*3 - 4, 4*8*6*3 + 4} {
			if err := s.FieldInto("theta", make([]byte, n)); err == nil {
				t.Errorf("a %d-byte destination should be rejected", n)
			}
		}
		// theta must be a plausible atmosphere: 250..320 K.
		xs, _ := field(s, "theta")
		for _, x := range xs {
			if x < 250 || x > 320 {
				t.Fatalf("theta = %v out of plausible range", x)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecompositionEquivalence is the load-bearing correctness test: the
// same global domain stepped serially and on a 2x2 process grid must
// produce bit-identical fields (halo exchange is exact).
func TestDecompositionEquivalence(t *testing.T) {
	const steps = 5
	base := Params{GlobalNX: 16, GlobalNY: 12, NZ: 4, DT: 0.05, Kappa: 0.12, WorkFactor: 1}

	// Serial reference.
	serial := make(map[string][]float32)
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		p := base
		p.PX, p.PY = 1, 1
		s, err := New(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		for _, name := range VariableNames {
			xs, _ := field(s, name)
			serial[name] = xs
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Parallel run: 4 ranks on a 2x2 grid.
	var mu sync.Mutex
	parallel := make(map[string]map[int][]float32) // name -> rank -> local field
	err = mpi.Run(4, 4, func(c *mpi.Comm) {
		p := base
		p.PX, p.PY = 2, 2
		s, err := New(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		mu.Lock()
		defer mu.Unlock()
		for _, name := range VariableNames {
			xs, _ := field(s, name)
			if parallel[name] == nil {
				parallel[name] = make(map[int][]float32)
			}
			parallel[name][c.Rank()] = xs
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stitch the parallel subdomains together and compare with serial.
	nx, ny, nz := base.GlobalNX, base.GlobalNY, base.NZ
	lnx, lny := nx/2, ny/2
	for _, name := range VariableNames {
		for rank := 0; rank < 4; rank++ {
			rx, ry := rank%2, rank/2
			local := parallel[name][rank]
			for k := 0; k < nz; k++ {
				for j := 0; j < lny; j++ {
					for i := 0; i < lnx; i++ {
						gi, gj := rx*lnx+i, ry*lny+j
						want := serial[name][(k*ny+gj)*nx+gi]
						got := local[(k*lny+j)*lnx+i]
						if got != want {
							t.Fatalf("%s rank %d cell (%d,%d,%d): %v != %v",
								name, rank, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMeanApproximatelyConserved(t *testing.T) {
	// Pure diffusion with periodic boundaries conserves the mean; the
	// advection term is upwind so it introduces small dissipation. Assert
	// drift below 1%.
	err := mpi.Run(4, 4, func(c *mpi.Comm) {
		p := Params{GlobalNX: 16, GlobalNY: 16, NZ: 4, PX: 2, PY: 2, DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		s, err := New(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		m0, root := fieldMean(s, "theta")
		for i := 0; i < 20; i++ {
			s.Step()
		}
		m1, _ := fieldMean(s, "theta")
		if root && math.Abs(m1-m0)/m0 > 0.01 {
			t.Errorf("theta mean drifted %.3f%%: %v -> %v", 100*math.Abs(m1-m0)/m0, m0, m1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fieldMean is the interior mean of a field over every rank of s's
// communicator, at rank 0 (ok is false elsewhere); every rank must call it.
func fieldMean(s *Sim, name string) (mean float64, ok bool) {
	xs, _ := field(s, name)
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	parts := s.comm.Gather(0, [2]float64{sum, float64(len(xs))})
	if parts == nil {
		return 0, false
	}
	var tot [2]float64
	for _, p := range parts {
		tot[0] += p.([2]float64)[0]
		tot[1] += p.([2]float64)[1]
	}
	return tot[0] / tot[1], true
}

func TestStabilityLongRun(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		p := Params{GlobalNX: 12, GlobalNY: 12, NZ: 3, PX: 1, PY: 1, DT: 0.05, Kappa: 0.12, WorkFactor: 2}
		s, _ := New(c, p)
		for i := 0; i < 100; i++ {
			s.Step()
		}
		xs, _ := field(s, "theta")
		for _, x := range xs {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatal("field blew up")
			}
			if x < 200 || x > 400 {
				t.Fatalf("theta = %v outside stable range", x)
			}
		}
		if s.step != 100 {
			t.Errorf("step count = %d", s.step)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvolutionChangesFields(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		p := Params{GlobalNX: 12, GlobalNY: 12, NZ: 3, PX: 1, PY: 1, DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		s, _ := New(c, p)
		before, _ := field(s, "theta")
		s.Step()
		after, _ := field(s, "theta")
		changed := 0
		for i := range before {
			if before[i] != after[i] {
				changed++
			}
		}
		if changed < len(before)/10 {
			t.Errorf("only %d/%d cells changed; model inert?", changed, len(before))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigXML(t *testing.T) {
	p := DefaultParams(2, 2)
	xml := ConfigXML(p, 1<<20, "mutex", 1)
	cfg, err := parseConfig(xml)
	if err != nil {
		t.Fatalf("generated config does not parse: %v\n%s", err, xml)
	}
	for _, v := range VariableNames {
		decl, ok := cfg.Variables[v]
		if !ok {
			t.Errorf("variable %s missing", v)
			continue
		}
		if decl.Layout.Bytes() != int64(p.LocalNX()*p.LocalNY()*p.NZ*4) {
			t.Errorf("%s layout bytes = %d", v, decl.Layout.Bytes())
		}
	}
	if _, ok := cfg.Event("cm1_stats"); !ok {
		t.Error("cm1_stats event missing")
	}
}

func TestFieldIntoDoesNotAllocate(t *testing.T) {
	err := mpi.Run(1, 1, func(c *mpi.Comm) {
		s, err := New(c, DefaultParams(1, 1))
		if err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 4*s.nx*s.ny*s.nz)
		gather := func() {
			if err := s.FieldInto("theta", dst); err != nil {
				t.Error(err)
			}
		}
		if n := testing.AllocsPerRun(100, gather); n != 0 {
			t.Errorf("FieldInto allocates %v objects per call, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
