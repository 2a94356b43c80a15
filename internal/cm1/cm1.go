// Package cm1 is a miniature analogue of the CM1 atmospheric model used in
// the paper's evaluation (§IV-A).
//
// CM1 "follows a typical behavior of scientific simulations which alternate
// computation phases and I/O phases. The simulated domain is a fixed 3D
// array representing part of the atmosphere. […] Parallelization is done
// using MPI, by splitting the 3D array along a 2D grid of equally-sized
// subdomains that are handled by each process." This mini-app reproduces
// exactly that structure: a 3D advection–diffusion solve for potential
// temperature plus derived wind and moisture fields, a 2D (x,y) domain
// decomposition with halo exchange, and periodic output phases through a
// pluggable I/O backend (file-per-process, collective, or Damaris).
//
// Physical fidelity is not the goal — phase structure, data volumes and
// numeric texture (smooth fields with local perturbations, which is what
// compression ratios depend on) are.
package cm1

import (
	"encoding/binary"
	"fmt"
	"math"

	"damaris/internal/layout"
	"damaris/internal/mpi"
)

// Params configures a run. The global domain is GlobalNX×GlobalNY×NZ cells
// split over a PX×PY process grid.
type Params struct {
	GlobalNX, GlobalNY, NZ int
	PX, PY                 int
	// DT is the timestep (arbitrary units).
	DT float64
	// Diffusivity and advection speed of the scheme.
	Kappa float64
	// WorkFactor repeats the stencil sweep per step to scale compute cost.
	WorkFactor int
}

// DefaultParams mirrors the paper's per-core subdomain proportions
// (Kraken: 44×44×200 per core) at laptop scale.
func DefaultParams(px, py int) Params {
	return Params{
		GlobalNX: px * 22, GlobalNY: py * 22, NZ: 20,
		PX: px, PY: py,
		DT: 0.05, Kappa: 0.12, WorkFactor: 1,
	}
}

// Validate checks the decomposition.
func (p Params) Validate() error {
	if p.GlobalNX <= 0 || p.GlobalNY <= 0 || p.NZ <= 0 {
		return fmt.Errorf("cm1: non-positive domain %dx%dx%d", p.GlobalNX, p.GlobalNY, p.NZ)
	}
	if p.PX <= 0 || p.PY <= 0 {
		return fmt.Errorf("cm1: non-positive process grid %dx%d", p.PX, p.PY)
	}
	if p.GlobalNX%p.PX != 0 {
		return fmt.Errorf("cm1: nx=%d not divisible by px=%d", p.GlobalNX, p.PX)
	}
	if p.GlobalNY%p.PY != 0 {
		return fmt.Errorf("cm1: ny=%d not divisible by py=%d", p.GlobalNY, p.PY)
	}
	if p.WorkFactor < 1 {
		return fmt.Errorf("cm1: work factor %d", p.WorkFactor)
	}
	return nil
}

// LocalNX returns the per-process subdomain width.
func (p Params) LocalNX() int { return p.GlobalNX / p.PX }

// LocalNY returns the per-process subdomain depth.
func (p Params) LocalNY() int { return p.GlobalNY / p.PY }

// VariableNames lists the output fields, CM1-style: potential temperature,
// the three wind components, and water-vapor mixing ratio.
var VariableNames = []string{"theta", "u", "v", "w", "qv"}

// Sim is one rank's share of the simulation.
type Sim struct {
	comm *mpi.Comm
	p    Params

	rankX, rankY int          // position in the process grid
	nx, ny, nz   int          // local interior sizes
	global       layout.Block // the interior's place in the global domain

	// Fields are stored with a one-cell halo in x and y:
	// index = (k*(ny+2) + (j+1))*(nx+2) + (i+1) for interior (i,j,k).
	theta, thetaNext []float32
	u, v, w, qv      []float32

	step int64
}

// New builds a rank's simulation state. comm.Size() must equal PX*PY; the
// rank's grid position is rank = rankY*PX + rankX (row-major).
func New(comm *mpi.Comm, p Params) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if comm.Size() != p.PX*p.PY {
		return nil, fmt.Errorf("cm1: communicator size %d != process grid %dx%d", comm.Size(), p.PX, p.PY)
	}
	s := &Sim{
		comm:  comm,
		p:     p,
		rankX: comm.Rank() % p.PX,
		rankY: comm.Rank() / p.PX,
		nx:    p.LocalNX(),
		ny:    p.LocalNY(),
		nz:    p.NZ,
	}
	s.global = layout.Block{
		Start: []int64{0, int64(s.globalY(0)), int64(s.globalX(0))},
		Count: []int64{int64(s.nz), int64(s.ny), int64(s.nx)},
	}
	n := (s.nx + 2) * (s.ny + 2) * s.nz
	s.theta = make([]float32, n)
	s.thetaNext = make([]float32, n)
	s.u = make([]float32, n)
	s.v = make([]float32, n)
	s.w = make([]float32, n)
	s.qv = make([]float32, n)
	s.initialize()
	return s, nil
}

// idx maps interior coordinates (i,j,k), with i∈[-1,nx] and j∈[-1,ny]
// reaching into the halo, to the flat offset.
func (s *Sim) idx(i, j, k int) int {
	return (k*(s.ny+2)+(j+1))*(s.nx+2) + (i + 1)
}

// globalX returns the global x index of local interior column i.
func (s *Sim) globalX(i int) int { return s.rankX*s.nx + i }

// globalY returns the global y index of local interior row j.
func (s *Sim) globalY(j int) int { return s.rankY*s.ny + j }

// initialize seeds fields from global coordinates, so any decomposition of
// the same global domain starts from identical data (the property the
// decomposition-equivalence tests rely on).
func (s *Sim) initialize() {
	fx := 2 * math.Pi / float64(s.p.GlobalNX)
	fy := 2 * math.Pi / float64(s.p.GlobalNY)
	for k := 0; k < s.nz; k++ {
		zfrac := float64(k) / float64(s.nz)
		for j := 0; j < s.ny; j++ {
			gy := float64(s.globalY(j))
			for i := 0; i < s.nx; i++ {
				gx := float64(s.globalX(i))
				id := s.idx(i, j, k)
				// A warm bubble on a stratified background — the classic
				// CM1 supercell initialization, schematically.
				s.theta[id] = float32(300 - 30*zfrac +
					8*math.Exp(-((math.Sin(fx*gx/2)*math.Sin(fx*gx/2))+
						(math.Sin(fy*gy/2)*math.Sin(fy*gy/2)))*6))
				s.u[id] = float32(12 * math.Sin(fy*gy) * (1 - zfrac))
				s.v[id] = float32(-12 * math.Sin(fx*gx) * (1 - zfrac))
				s.w[id] = 0
				s.qv[id] = float32(0.014 * math.Exp(-3*zfrac))
			}
		}
	}
}

// Step advances the model by one timestep: halo exchange then an
// advection–diffusion sweep (repeated WorkFactor times), plus diagnostic
// updates of w and qv. The domain is periodic in x and y.
func (s *Sim) Step() {
	for sweep := 0; sweep < s.p.WorkFactor; sweep++ {
		s.exchangeHalo(s.theta)
		dt := float32(s.p.DT)
		kap := float32(s.p.Kappa)
		for k := 0; k < s.nz; k++ {
			for j := 0; j < s.ny; j++ {
				for i := 0; i < s.nx; i++ {
					id := s.idx(i, j, k)
					c := s.theta[id]
					xm := s.theta[s.idx(i-1, j, k)]
					xp := s.theta[s.idx(i+1, j, k)]
					ym := s.theta[s.idx(i, j-1, k)]
					yp := s.theta[s.idx(i, j+1, k)]
					lap := xm + xp + ym + yp - 4*c
					// First-order upwind advection by the local wind.
					var adv float32
					if s.u[id] >= 0 {
						adv += s.u[id] * (c - xm)
					} else {
						adv += s.u[id] * (xp - c)
					}
					if s.v[id] >= 0 {
						adv += s.v[id] * (c - ym)
					} else {
						adv += s.v[id] * (yp - c)
					}
					s.thetaNext[id] = c + dt*(kap*lap-0.02*adv)
				}
			}
		}
		s.theta, s.thetaNext = s.thetaNext, s.theta
	}
	// Diagnostics: vertical velocity from horizontal temperature contrast,
	// moisture relaxing toward a theta-dependent saturation.
	for k := 0; k < s.nz; k++ {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				id := s.idx(i, j, k)
				s.w[id] = 0.05 * (s.theta[id] - 285)
				sat := float32(0.014) * s.theta[id] / 300
				s.qv[id] += 0.1 * (sat - s.qv[id])
			}
		}
	}
	s.step++
}

// exchangeHalo fills the one-cell x/y halos of a field from the periodic
// neighbours. Tags 2..5 are reserved for the four directions.
func (s *Sim) exchangeHalo(f []float32) {
	left := s.rankY*s.p.PX + (s.rankX-1+s.p.PX)%s.p.PX
	right := s.rankY*s.p.PX + (s.rankX+1)%s.p.PX
	up := ((s.rankY-1+s.p.PY)%s.p.PY)*s.p.PX + s.rankX
	down := ((s.rankY+1)%s.p.PY)*s.p.PX + s.rankX

	const (
		tagToRight = 2
		tagToLeft  = 3
		tagToDown  = 4
		tagToUp    = 5
	)

	// X direction: send right edge to the right neighbour, receive into the
	// left halo — and the mirror.
	sendEdgeX := func(dst, tag, col int) {
		buf := make([]float32, s.ny*s.nz)
		for k := 0; k < s.nz; k++ {
			for j := 0; j < s.ny; j++ {
				buf[k*s.ny+j] = f[s.idx(col, j, k)]
			}
		}
		s.comm.Send(dst, tag, buf)
	}
	recvEdgeX := func(src, tag, col int) {
		buf := s.comm.Recv(src, tag).([]float32)
		for k := 0; k < s.nz; k++ {
			for j := 0; j < s.ny; j++ {
				f[s.idx(col, j, k)] = buf[k*s.ny+j]
			}
		}
	}
	sendEdgeX(right, tagToRight, s.nx-1)
	sendEdgeX(left, tagToLeft, 0)
	recvEdgeX(left, tagToRight, -1)
	recvEdgeX(right, tagToLeft, s.nx)

	// Y direction.
	sendEdgeY := func(dst, tag, row int) {
		buf := make([]float32, s.nx*s.nz)
		for k := 0; k < s.nz; k++ {
			for i := 0; i < s.nx; i++ {
				buf[k*s.nx+i] = f[s.idx(i, row, k)]
			}
		}
		s.comm.Send(dst, tag, buf)
	}
	recvEdgeY := func(src, tag, row int) {
		buf := s.comm.Recv(src, tag).([]float32)
		for k := 0; k < s.nz; k++ {
			for i := 0; i < s.nx; i++ {
				f[s.idx(i, row, k)] = buf[k*s.nx+i]
			}
		}
	}
	sendEdgeY(down, tagToDown, s.ny-1)
	sendEdgeY(up, tagToUp, 0)
	recvEdgeY(up, tagToDown, -1)
	recvEdgeY(down, tagToUp, s.ny)
}

// FieldInto gathers an output variable's interior (no halo), in C order
// [nz][ny][nx], into dst as little-endian float32: one pass from the model's
// array to wherever the bytes are going. dst must hold exactly the interior.
func (s *Sim) FieldInto(name string, dst []byte) error {
	var src []float32
	switch name {
	case "theta":
		src = s.theta
	case "u":
		src = s.u
	case "v":
		src = s.v
	case "w":
		src = s.w
	case "qv":
		src = s.qv
	default:
		return fmt.Errorf("cm1: unknown field %q", name)
	}
	if want := 4 * s.nx * s.ny * s.nz; len(dst) != want {
		return fmt.Errorf("cm1: field %q needs %d bytes, got %d", name, want, len(dst))
	}
	for k := 0; k < s.nz; k++ {
		for j := 0; j < s.ny; j++ {
			for _, x := range src[s.idx(0, j, k):][:s.nx] {
				binary.LittleEndian.PutUint32(dst, math.Float32bits(x))
				dst = dst[4:]
			}
		}
	}
	return nil
}

// GlobalBlock returns where this rank's interior lies in the global
// [nz][ny][nx] domain. Every call returns the same slices; callers must not
// modify them.
func (s *Sim) GlobalBlock() layout.Block { return s.global }
