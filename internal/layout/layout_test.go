package layout

import (
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := map[Type]int{Int32: 4, Int64: 8, Float32: 4, Float64: 8, Byte: 1, Invalid: 0}
	for ty, want := range cases {
		if got := ty.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", ty, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	ok := map[string]Type{
		"int": Int32, "INT32": Int32, "integer": Int32,
		"long": Int64, "int64": Int64,
		"real": Float32, " float ": Float32, "float32": Float32,
		"double": Float64, "float64": Float64,
		"byte": Byte, "char": Byte, "uint8": Byte,
	}
	for s, want := range ok {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseType("quaternion"); err == nil {
		t.Error("expected error for unknown type")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Float32); err == nil {
		t.Error("expected error for no extents")
	}
	if _, err := New(Float32, 4, 0); err == nil {
		t.Error("expected error for zero extent")
	}
	if _, err := New(Float32, -1); err == nil {
		t.Error("expected error for negative extent")
	}
	if _, err := New(Invalid, 4); err == nil {
		t.Error("expected error for invalid type")
	}
	if _, err := New(Float64, 1<<31, 1<<31, 1<<31); err == nil {
		t.Error("expected overflow error")
	}
}

func TestLayoutAccessors(t *testing.T) {
	l := MustNew(Float32, 64, 16, 2)
	if len(l.Extents()) != 3 {
		t.Errorf("Extents = %v", l.Extents())
	}
	if l.Elems() != 64*16*2 {
		t.Errorf("Elems = %d", l.Elems())
	}
	if l.Bytes() != 64*16*2*4 {
		t.Errorf("Bytes = %d", l.Bytes())
	}
	if l.Extents()[1] != 16 {
		t.Errorf("Extents()[1] = %d", l.Extents()[1])
	}
	if l.String() != "real[64,16,2]" {
		t.Errorf("String = %q", l.String())
	}
	ext := l.Extents()
	ext[0] = 999
	if l.Extents()[0] != 64 {
		t.Error("Extents must return a copy")
	}
}

func TestEqualAndZero(t *testing.T) {
	a := MustNew(Float32, 4, 5)
	b := MustNew(Float32, 4, 5)
	c := MustNew(Float32, 5, 4)
	d := MustNew(Float64, 4, 5)
	if !a.Equal(b) {
		t.Error("identical layouts must be Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different layouts must not be Equal")
	}
	var z Layout
	if !z.IsZero() {
		t.Error("zero value should be IsZero")
	}
	if a.IsZero() {
		t.Error("non-zero layout must not be IsZero")
	}
	if z.String() != "layout(zero)" {
		t.Errorf("zero String = %q", z.String())
	}
}

func TestReverse(t *testing.T) {
	l := MustNew(Float32, 64, 16, 2)
	r := l.Reverse()
	want := MustNew(Float32, 2, 16, 64)
	if !r.Equal(want) {
		t.Errorf("Reverse = %v, want %v", r, want)
	}
	if !r.Reverse().Equal(l) {
		t.Error("double Reverse must round-trip")
	}
}

func TestParseDims(t *testing.T) {
	d, err := ParseDims(" 64 , 16 ,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || d[0] != 64 || d[1] != 16 || d[2] != 2 {
		t.Errorf("ParseDims = %v", d)
	}
	if _, err := ParseDims("64,x"); err == nil {
		t.Error("expected error for non-numeric dim")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	l := MustNew(Float64, 10, 20, 30, 40)
	got, err := Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Errorf("round trip = %v, want %v", got, l)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{descriptorVersion},
		{99, byte(Float32), 1, 0, 0, 0, 0, 0, 0, 0, 0},                // bad version
		{descriptorVersion, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},             // invalid type
		{descriptorVersion, byte(Float32), 2, 1, 0, 0, 0, 0, 0, 0, 0}, // short
		// New's checks hold for a descriptor's extents too.
		{descriptorVersion, byte(Float32), 1, 0, 0, 0, 0, 0, 0, 0, 0},                         // zero extent
		{descriptorVersion, byte(Float32), 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // negative extent
		{descriptorVersion, byte(Float64), 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, // size overflow
		{descriptorVersion, byte(Float64), 0},                                                 // no extent
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Unmarshal allocates a layout's extents once and keeps them, where New
// copies what its caller passed: a caller's slice is not the layout's.
func TestUnmarshalAllocatesExtentsOnce(t *testing.T) {
	desc := MustNew(Float64, 4, 5, 6).Marshal()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(desc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Unmarshal of a 3-d descriptor allocates %.0f times, want 1", n)
	}
	ext := []int64{4, 5, 6}
	l := MustNew(Float64, ext...)
	ext[0] = 999
	if !l.Equal(MustNew(Float64, 4, 5, 6)) {
		t.Errorf("New kept its caller's slice: %v", l)
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary valid layouts.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(tSel uint8, rawDims []uint16) bool {
		types := []Type{Int32, Int64, Float32, Float64, Byte}
		ty := types[int(tSel)%len(types)]
		if len(rawDims) == 0 || len(rawDims) > 8 {
			return true
		}
		dims := make([]int64, len(rawDims))
		for i, d := range rawDims {
			dims[i] = int64(d%1000) + 1
		}
		l, err := New(ty, dims...)
		if err != nil {
			// Overflow guard tripping on huge products is legitimate.
			return true
		}
		got, err := Unmarshal(l.Marshal())
		return err == nil && got.Equal(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bytes == Elems * Type.Size and Reverse preserves both.
func TestQuickSizeAlgebra(t *testing.T) {
	f := func(a, b, c uint8) bool {
		l, err := New(Float32, int64(a%50)+1, int64(b%50)+1, int64(c%50)+1)
		if err != nil {
			return false
		}
		r := l.Reverse()
		return l.Bytes() == l.Elems()*4 && r.Elems() == l.Elems() && r.Bytes() == l.Bytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockValidity(t *testing.T) {
	good := Block{Start: []int64{0, 5}, Count: []int64{4, 4}}
	if !good.Valid() {
		t.Error("good block should be valid")
	}
	bads := []Block{
		{},
		{Start: []int64{0}, Count: []int64{1, 2}},
		{Start: []int64{-1}, Count: []int64{2}},
		{Start: []int64{0}, Count: []int64{0}},
	}
	for i, b := range bads {
		if b.Valid() {
			t.Errorf("bad block %d reported valid", i)
		}
	}
	if good.Elems() != 16 {
		t.Errorf("Elems = %d", good.Elems())
	}
	if bads[0].Elems() != 0 {
		t.Error("invalid block must have 0 elems")
	}
}
