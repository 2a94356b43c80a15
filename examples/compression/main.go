// compression demonstrates the paper's §IV-D spare-time transformations on
// real CM1-like field data: lossless gzip (paper: 187% ratio) and 16-bit
// precision reduction + gzip (paper: ~600%), all computed on the dedicated
// core rather than the simulation's critical path.
//
// Run with: go run ./examples/compression
package main

import (
	"compress/gzip"
	"fmt"
	"log"

	"damaris/internal/cm1"
	"damaris/internal/mpi"
	"damaris/internal/transform"
)

func main() {
	// Generate one rank's worth of storm data by actually running the
	// mini-app for a few steps.
	var field []float32
	err := mpi.Run(1, 1, func(comm *mpi.Comm) {
		p := cm1.Params{GlobalNX: 128, GlobalNY: 128, NZ: 40, PX: 1, PY: 1,
			DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		sim, err := cm1.New(comm, p)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			sim.Step()
		}
		field, err = sim.Field("theta")
		if err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	raw := mpi.Float32sToBytes(field)
	fmt.Printf("field: %d values, %d bytes raw\n", len(field), len(raw))

	// 1. Plain gzip (what HDF5's deflate filter would do). Levels follow
	// compress/gzip exactly, so the whole spectrum is reachable — from
	// HuffmanOnly (-2, fastest useful) to BestCompression (9).
	gz, err := transform.CompressGzip(raw, gzip.DefaultCompression)
	must(err)
	fmt.Printf("gzip:                     %8d bytes  ratio %.0f%%  (paper: 187%%)\n",
		len(gz), transform.Ratio(len(raw), len(gz)))
	for _, level := range []int{gzip.HuffmanOnly, gzip.BestSpeed, gzip.BestCompression} {
		lgz, err := transform.CompressGzip(raw, level)
		must(err)
		fmt.Printf("  gzip level %2d:          %8d bytes  ratio %.0f%%\n",
			level, len(lgz), transform.Ratio(len(raw), len(lgz)))
	}

	// 2. Byte-shuffle + gzip (the standard float filter stack), first as one
	// gzip member over the whole shuffled field, then the way the DSF
	// shuffle+gzip codec stores it: one member per byte plane, the default
	// level spent only on the planes that repay it.
	sh, err := transform.Shuffle(raw, 4)
	must(err)
	shgz, err := transform.CompressGzip(sh, gzip.DefaultCompression)
	must(err)
	fmt.Printf("shuffle+gzip:             %8d bytes  ratio %.0f%%\n",
		len(shgz), transform.Ratio(len(raw), len(shgz)))
	planes, modes, err := transform.ShuffleGzipTo(nil, raw, 4, gzip.DefaultCompression)
	must(err)
	fmt.Printf("shuffle+gzip per plane:   %8d bytes  ratio %.0f%%  (paper: 187%%; planes: %d stored, %d fast, %d level)\n",
		len(planes), transform.Ratio(len(raw), len(planes)),
		modes[transform.PlaneStored], modes[transform.PlaneFast], modes[transform.PlaneLevel])

	// 3. 16-bit precision reduction + shuffle + gzip — the paper's
	// visualization path ("the floating point precision can also be
	// reduced to 16 bits, leading to nearly 600% compression ratio").
	red := transform.ReduceFloat32To16(field)
	redSh, err := transform.Shuffle(red[20:], 2) // skip the self-describing header
	must(err)
	redGz, err := transform.CompressGzip(redSh, gzip.DefaultCompression)
	must(err)
	fmt.Printf("reduce16+shuffle+gzip:    %8d bytes  ratio %.0f%%  (paper: ~600%%)\n",
		len(redGz), transform.Ratio(len(raw), len(redGz)))

	// Verify the reduction's error bound on the real field.
	restored, err := transform.RestoreFloat32From16(red)
	must(err)
	lo, hi := field[0], field[0]
	for _, x := range field {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	bound := transform.MaxReductionError(lo, hi)
	worst := 0.0
	for i := range field {
		d := float64(restored[i] - field[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("reduction error: worst %.4g K (bound %.4g K) over [%.1f, %.1f] K\n",
		worst, bound, lo, hi)

	// 4. Min/max chunk index: the "smart action" that answers range queries
	// without touching storage.
	idx, err := transform.IndexFloat32(field, 4096)
	must(err)
	hot := transform.QueryIndex(idx, 300, 1e9) // chunks containing the warm bubble
	fmt.Printf("index: %d chunks, %d contain θ > 300 K\n", len(idx), len(hot))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
