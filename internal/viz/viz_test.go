package viz

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
)

// create starts a DSF stream on a new file at path; the file is closed when
// the test ends.
func create(t *testing.T, path string) (*dsf.Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { f.Close() })
	return dsf.NewWriter(f)
}

func TestNewFieldValidation(t *testing.T) {
	if _, err := NewField(); err == nil {
		t.Error("no dims should fail")
	}
	if _, err := NewField(4, 0); err == nil {
		t.Error("zero dim should fail")
	}
	if _, err := NewField(1<<21, 1<<21); err == nil {
		t.Error("oversize should fail")
	}
	f, err := NewField(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != 24 {
		t.Errorf("data = %d", len(f.Data))
	}
}

// set assigns the value at the given coordinates.
func set(f *Field, v float32, idx ...int64) { f.Data[f.offset(idx)] = v }

// at returns the value at the given coordinates.
func at(f *Field, idx ...int64) float32 { return f.Data[f.offset(idx)] }

func TestAtSetRoundTrip(t *testing.T) {
	f, _ := NewField(2, 3, 4)
	set(f, 7.5, 1, 2, 3)
	if at(f, 1, 2, 3) != 7.5 {
		t.Error("At/Set round trip failed")
	}
	// C-order: last coordinate fastest.
	if f.Data[1*3*4+2*4+3] != 7.5 {
		t.Error("offset arithmetic wrong")
	}
}

func TestAtPanics(t *testing.T) {
	f, _ := NewField(2, 2)
	for _, idx := range [][]int64{{0}, {0, 2}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", idx)
				}
			}()
			at(f, idx...)
		}()
	}
}

// makeChunk builds a chunk whose values encode their global coordinates,
// so assembly errors are detectable per cell.
func makeChunk(start, count []int64, dims []int64) Chunk {
	n := int64(1)
	for _, c := range count {
		n *= c
	}
	data := make([]float32, n)
	idx := make([]int64, len(count))
	for flat := int64(0); flat < n; flat++ {
		rem := flat
		for d := len(count) - 1; d >= 0; d-- {
			idx[d] = rem % count[d]
			rem /= count[d]
		}
		var enc int64
		for d := range idx {
			enc = enc*dims[d] + (start[d] + idx[d])
		}
		data[flat] = float32(enc)
	}
	return Chunk{Global: layout.Block{Start: start, Count: count}, Data: data}
}

func TestAssemble2x2(t *testing.T) {
	dims := []int64{4, 6}
	var chunks []Chunk
	for _, s := range [][2]int64{{0, 0}, {0, 3}, {2, 0}, {2, 3}} {
		chunks = append(chunks, makeChunk([]int64{s[0], s[1]}, []int64{2, 3}, dims))
	}
	f, err := Assemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dims[0] != 4 || f.Dims[1] != 6 {
		t.Fatalf("dims = %v", f.Dims)
	}
	for j := int64(0); j < 4; j++ {
		for i := int64(0); i < 6; i++ {
			want := float32(j*6 + i)
			if got := at(f, j, i); got != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", j, i, got, want)
			}
		}
	}
}

func TestAssemble3D(t *testing.T) {
	dims := []int64{3, 4, 4}
	var chunks []Chunk
	for _, x0 := range []int64{0, 2} {
		for _, y0 := range []int64{0, 2} {
			chunks = append(chunks, makeChunk([]int64{0, y0, x0}, []int64{3, 2, 2}, dims))
		}
	}
	f, err := Assemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 3; k++ {
		for j := int64(0); j < 4; j++ {
			for i := int64(0); i < 4; i++ {
				want := float32((k*4+j)*4 + i)
				if got := at(f, k, j, i); got != want {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", k, j, i, got, want)
				}
			}
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(nil); err == nil {
		t.Error("no chunks should fail")
	}
	bad := Chunk{Global: layout.Block{Start: []int64{0}, Count: []int64{2}}, Data: []float32{1}}
	if _, err := Assemble([]Chunk{bad}); err == nil {
		t.Error("size mismatch should fail")
	}
	mixed := []Chunk{
		makeChunk([]int64{0}, []int64{2}, []int64{2}),
		makeChunk([]int64{0, 0}, []int64{2, 2}, []int64{2, 2}),
	}
	if _, err := Assemble(mixed); err == nil {
		t.Error("mixed ranks should fail")
	}
	invalid := Chunk{Global: layout.Block{}, Data: nil}
	if _, err := Assemble([]Chunk{invalid}); err == nil {
		t.Error("invalid block should fail")
	}
}

// Property: assembling any disjoint 1-D decomposition reproduces the
// original array exactly.
func TestQuickAssemble1D(t *testing.T) {
	f := func(widths []uint8) bool {
		if len(widths) == 0 || len(widths) > 10 {
			return true
		}
		var chunks []Chunk
		var off int64
		for _, w := range widths {
			cw := int64(w%16) + 1
			data := make([]float32, cw)
			for i := range data {
				data[i] = float32(off + int64(i))
			}
			chunks = append(chunks, Chunk{
				Global: layout.Block{Start: []int64{off}, Count: []int64{cw}},
				Data:   data,
			})
			off += cw
		}
		fld, err := Assemble(chunks)
		if err != nil {
			return false
		}
		if fld.Dims[0] != off {
			return false
		}
		for i := int64(0); i < off; i++ {
			if at(fld, i) != float32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.dsf")
	w, err := create(t, path)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.MustNew(layout.Float32, 2, 2)
	dims := []int64{2, 4}
	for _, x0 := range []int64{0, 2} {
		c := makeChunk([]int64{0, x0}, []int64{2, 2}, dims)
		meta := dsf.ChunkMeta{Name: "w", Iteration: 3, Source: int(x0), Layout: lay, Global: c.Global}
		if err := w.WriteChunk(meta, mpi.Float32sToBytes(c.Data)); err != nil {
			t.Fatal(err)
		}
	}
	// A chunk of another iteration must be ignored.
	other := makeChunk([]int64{0, 0}, []int64{2, 2}, dims)
	_ = w.WriteChunk(dsf.ChunkMeta{Name: "w", Iteration: 9, Source: 0, Layout: lay, Global: other.Global},
		mpi.Float32sToBytes(other.Data))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := dsf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f, err := FromReader(r, "w", 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dims[0] != 2 || f.Dims[1] != 4 {
		t.Fatalf("dims = %v", f.Dims)
	}
	if at(f, 1, 3) != float32(1*4+3) {
		t.Errorf("cell = %v", at(f, 1, 3))
	}
	if _, err := FromReader(r, "ghost", 3); err == nil {
		t.Error("unknown variable should fail")
	}
	if _, err := FromReader(r, "w", 99); err == nil {
		t.Error("unknown iteration should fail")
	}
}
