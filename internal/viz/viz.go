// Package viz reassembles globally-decomposed fields from per-writer chunks
// and provides the lightweight in-situ diagnostics the paper's future-work
// section motivates (§VI: "a tight coupling between running simulations and
// visualization engines, enabling direct access to data by visualization
// engines (through the I/O cores) while the simulation is running").
//
// Chunks carry their position in the global domain (layout.Block); Assemble
// stitches them back into one dense array, whether they come from a DSF file
// on disk or straight from a dedicated core's metadata catalog.
package viz

import (
	"errors"
	"fmt"
	"math"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
)

// ErrNoChunks is what FromChunkSource wraps when the source holds no chunk of
// the variable and iteration asked for.
var ErrNoChunks = errors.New("viz: no chunks")

// Field is a dense N-dimensional float32 array with C-order extents
// (slowest-varying first).
type Field struct {
	Dims []int64
	Data []float32
}

// NewField allocates a zero field.
func NewField(dims ...int64) (*Field, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("viz: field needs at least one dimension")
	}
	n := int64(1)
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("viz: non-positive dimension %d", d)
		}
		if n > (1<<40)/d {
			return nil, fmt.Errorf("viz: field too large")
		}
		n *= d
	}
	return &Field{Dims: append([]int64(nil), dims...), Data: make([]float32, n)}, nil
}

// At returns the value at the given coordinates.
func (f *Field) At(idx ...int64) float32 {
	return f.Data[f.offset(idx)]
}

// Set assigns the value at the given coordinates.
func (f *Field) Set(v float32, idx ...int64) {
	f.Data[f.offset(idx)] = v
}

func (f *Field) offset(idx []int64) int64 {
	if len(idx) != len(f.Dims) {
		panic(fmt.Sprintf("viz: %d coordinates for %d-dimensional field", len(idx), len(f.Dims)))
	}
	var off int64
	for i, x := range idx {
		if x < 0 || x >= f.Dims[i] {
			panic(fmt.Sprintf("viz: coordinate %d out of range [0,%d)", x, f.Dims[i]))
		}
		off = off*f.Dims[i] + x
	}
	return off
}

// MinMax returns the extreme values (0,0 for an empty field).
func (f *Field) MinMax() (mn, mx float32) {
	if len(f.Data) == 0 {
		return 0, 0
	}
	mn, mx = f.Data[0], f.Data[0]
	for _, x := range f.Data {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// Mean returns the arithmetic mean (0 for an empty field).
func (f *Field) Mean() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	var sum float64
	for _, x := range f.Data {
		sum += float64(x)
	}
	return sum / float64(len(f.Data))
}

// Chunk pairs a piece's placement with its payload.
type Chunk struct {
	Global layout.Block
	Data   []float32
}

// Assemble stitches chunks into the smallest field covering them all.
// Chunks must share the rank of their Global blocks; overlaps are resolved
// last-writer-wins (re-written tuples). Gaps remain zero.
func Assemble(chunks []Chunk) (*Field, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("viz: no chunks to assemble")
	}
	rank := len(chunks[0].Global.Start)
	dims := make([]int64, rank)
	for _, c := range chunks {
		if !c.Global.Valid() {
			return nil, fmt.Errorf("viz: chunk with invalid global block")
		}
		if len(c.Global.Start) != rank {
			return nil, fmt.Errorf("viz: mixed chunk ranks (%d and %d)", rank, len(c.Global.Start))
		}
		if int64(len(c.Data)) != c.Global.Elems() {
			return nil, fmt.Errorf("viz: chunk carries %d values for a %d-element block",
				len(c.Data), c.Global.Elems())
		}
		for d := 0; d < rank; d++ {
			if end := c.Global.Start[d] + c.Global.Count[d]; end > dims[d] {
				dims[d] = end
			}
		}
	}
	f, err := NewField(dims...)
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		copyBlock(f, c, make([]int64, rank), 0)
	}
	return f, nil
}

// copyBlock recursively copies one chunk into the field, dimension by
// dimension; the innermost dimension is copied with a bulk copy.
func copyBlock(f *Field, c Chunk, idx []int64, dim int) {
	rank := len(c.Global.Start)
	if dim == rank-1 {
		// Compute flat offsets for the run start.
		gidx := make([]int64, rank)
		for d := 0; d < rank; d++ {
			gidx[d] = c.Global.Start[d] + idx[d]
		}
		gidx[rank-1] = c.Global.Start[rank-1]
		dst := f.offset(gidx)
		var src int64
		for d := 0; d < rank; d++ {
			src = src*c.Global.Count[d] + idx[d]
		}
		src -= idx[rank-1] // idx[rank-1] is 0 here by construction
		copy(f.Data[dst:dst+c.Global.Count[rank-1]], c.Data[src:src+c.Global.Count[rank-1]])
		return
	}
	for i := int64(0); i < c.Global.Count[dim]; i++ {
		idx[dim] = i
		copyBlock(f, c, idx, dim+1)
	}
	idx[dim] = 0
}

// FromChunkSource assembles a variable's iteration from any chunk source:
// metas enumerate the available chunks and read returns the decoded payload
// of one of them by index. This is the query path that no longer assumes
// local files — the source can be a dsf.Reader over a file, an object
// store's manifest-resolved stream, or the read gateway's cached reader.
// Only float32 chunks with global placement participate.
func FromChunkSource(metas []dsf.ChunkMeta, read func(i int) ([]byte, error), name string, iteration int64) (*Field, error) {
	var chunks []Chunk
	for i, m := range metas {
		if m.Name != name || m.Iteration != iteration {
			continue
		}
		if m.Layout.Type() != layout.Float32 {
			return nil, fmt.Errorf("viz: chunk %d of %q is %v, want float32", i, name, m.Layout.Type())
		}
		if !m.Global.Valid() {
			return nil, fmt.Errorf("viz: chunk %d of %q has no global placement", i, name)
		}
		raw, err := read(i)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, Chunk{Global: m.Global, Data: mpi.BytesToFloat32s(raw)})
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("%w of %q iteration %d", ErrNoChunks, name, iteration)
	}
	return Assemble(chunks)
}

// FromReader assembles a variable's iteration from a DSF reader's chunks —
// FromChunkSource over the reader's own metadata and decode path.
func FromReader(r *dsf.Reader, name string, iteration int64) (*Field, error) {
	return FromChunkSource(r.Chunks(), r.ReadChunk, name, iteration)
}

// ASCIIRender draws a horizontal slice (fixed first coordinate, for 3D
// fields the level k) as an ASCII contour map with the given width — the
// "poor man's visualization engine" for examples and smoke checks.
func ASCIIRender(f *Field, level int64, width int) (string, error) {
	if len(f.Dims) != 3 {
		return "", fmt.Errorf("viz: ASCIIRender wants a 3-D field, got %d-D", len(f.Dims))
	}
	if level < 0 || level >= f.Dims[0] {
		return "", fmt.Errorf("viz: level %d outside [0,%d)", level, f.Dims[0])
	}
	if width < 2 {
		return "", fmt.Errorf("viz: width %d too small", width)
	}
	ny, nx := f.Dims[1], f.Dims[2]
	height := int(float64(width) * float64(ny) / float64(nx) / 2) // terminal cells are ~2:1
	if height < 1 {
		height = 1
	}
	// Normalize within the rendered slice so stratified 3-D fields (whole
	// range dominated by the vertical gradient) still show horizontal
	// structure.
	mn, mx := f.At(level, 0, 0), f.At(level, 0, 0)
	for j := int64(0); j < ny; j++ {
		for i := int64(0); i < nx; i++ {
			v := f.At(level, j, i)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	span := float64(mx - mn)
	if span == 0 {
		span = 1
	}
	shades := []byte(" .:-=+*#%@")
	out := make([]byte, 0, (width+1)*height)
	for r := 0; r < height; r++ {
		j := int64(r) * ny / int64(height)
		for c := 0; c < width; c++ {
			i := int64(c) * nx / int64(width)
			v := float64(f.At(level, j, i)-mn) / span
			s := int(v * float64(len(shades)-1))
			if s < 0 {
				s = 0
			}
			if s >= len(shades) {
				s = len(shades) - 1
			}
			out = append(out, shades[s])
		}
		out = append(out, '\n')
	}
	return string(out), nil
}

// MaxUpdraft is the in-situ diagnostic of the paper's motivating science:
// the strongest vertical velocity and its grid location (storm chasers care
// exactly about this while the simulation runs).
func MaxUpdraft(w *Field) (value float32, loc []int64) {
	value = float32(math.Inf(-1))
	loc = make([]int64, len(w.Dims))
	idx := make([]int64, len(w.Dims))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(w.Dims) {
			if v := w.At(idx...); v > value {
				value = v
				copy(loc, idx)
			}
			return
		}
		for i := int64(0); i < w.Dims[dim]; i++ {
			idx[dim] = i
			walk(dim + 1)
		}
		idx[dim] = 0
	}
	walk(0)
	return value, loc
}
